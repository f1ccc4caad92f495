package other

import (
	"testing"

	"fixture/internal/lib"
	"fixture/internal/testutil"
)

func TestOther(t *testing.T) {
	if lib.OtherTestOnly() != 3 || (lib.Tested{}).Get() != 5 || testutil.Four() != 4 {
		t.Fatal("OtherTestOnly")
	}
	w := &lib.Window{}
	lib.Resize(w)
	if w.Size() != 8 {
		t.Fatal("Size")
	}
}
