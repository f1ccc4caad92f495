package util_test

import (
	"testing"

	"fixture/internal/testutil"
)

// An external test may import testutil, which imports the package
// under test, even while another package's test is importing testutil.
func TestExternal(t *testing.T) {
	if testutil.Four() != 4 {
		t.Fatal("Four")
	}
}
