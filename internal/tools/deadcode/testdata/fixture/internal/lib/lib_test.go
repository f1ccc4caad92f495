package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 2 {
		t.Fatal("OwnTestOnly")
	}
}
