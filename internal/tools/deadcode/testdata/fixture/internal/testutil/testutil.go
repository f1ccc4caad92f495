// Package testutil holds helpers tests share; it counts as shipped.
package testutil

import "fixture/internal/util"

// Four returns util.TestutilOnly().
func Four() int { return util.TestutilOnly() }
