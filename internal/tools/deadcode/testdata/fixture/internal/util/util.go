// Package util is used only by internal/testutil.
package util

// TestutilOnly is live: internal/testutil, which tests share, uses it.
func TestutilOnly() int { return 4 }
