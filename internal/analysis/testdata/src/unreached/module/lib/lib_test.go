package lib

import "testing"

// A test file's package-level initialiser is no root: it runs only in
// the test binary.
var tested = []func() int{OnlyTested}

func TestOnlyTested(t *testing.T) {
	for _, f := range tested {
		if f() != 1 {
			t.Fatal("OnlyTested")
		}
	}
}
