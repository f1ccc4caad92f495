package main

import (
	"slices"
	"testing"
)

// The fixture module holds one declaration for each case the check
// decides: three dead, and four reached only in the ways that are easy
// to miss (interface satisfaction, an interface type literal in a type
// assertion, a method of a generic type called on an instantiation, and
// another package's test).
func TestFindFixture(t *testing.T) {
	got, err := find("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:5: lib.Dead",
		"internal/lib/lib.go:8: lib.helper",
		"internal/lib/lib.go:11: lib.OwnTestOnly",
	}
	if !slices.Equal(got, want) {
		t.Errorf("find = %q\nwant %q", got, want)
	}
}
