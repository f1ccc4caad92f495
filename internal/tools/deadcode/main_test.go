package main

import (
	"slices"
	"testing"
)

// The fixture module holds one declaration for each case the check
// decides. Reported: dead code, code only its own package's tests use,
// and code only another package's tests use, a method of a type only
// tests use among it. Live, though easy to miss: a method reached
// through interface satisfaction, through an interface type literal in
// a type assertion, or on an instantiation of a generic type; a method
// of a live type that another package's test reads; and code only
// internal/testutil reaches, whose package's external test imports
// testutil while another package's test is importing it too.
func TestFindFixture(t *testing.T) {
	got, err := find("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:5: lib.Dead",
		"internal/lib/lib.go:8: lib.helper",
		"internal/lib/lib.go:11: lib.OwnTestOnly",
		"internal/lib/lib.go:14: lib.OtherTestOnly",
		"internal/lib/lib.go:18: lib.Tested",
		"internal/lib/lib.go:21: lib.Tested.Get",
	}
	if !slices.Equal(got, want) {
		t.Errorf("find = %q\nwant %q", got, want)
	}
}
