package other

import (
	"testing"

	"fixture/internal/lib"
)

func TestOther(t *testing.T) {
	if lib.OtherTestOnly() != 3 {
		t.Fatal("OtherTestOnly")
	}
}
