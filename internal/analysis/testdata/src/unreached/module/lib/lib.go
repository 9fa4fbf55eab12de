//rbvet:pkgpath repro/internal/lib

package lib

import (
	"fmt"
	"sort"
	"strings"
)

// Used is reached from main; it takes a method value, hands byLen to
// sort.Sort, prints a label and runs a literal.
func Used(xs []string) string {
	sort.Sort(byLen(xs))
	double := func(s string) string { return s + s }
	return strings.Map(rot(1).shift, double(strings.Join(xs, ""))) + fmt.Sprint(label{}) + Kept()
}

type rot rune

func (r rot) shift(c rune) rune { return c + rune(r) }

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

type label struct{}

func (label) String() string { return "label" }

// ghost is a Stringer no reached code uses.
type ghost struct{}

func (ghost) String() string { return "ghost" } // want `\[unreached\] lib\.ghost\.String is reached by no main`

// Table names square in a package-level initialiser.
var Table = &struct{ Run func(int) int }{Run: square}

func square(x int) int { return x * x }

func OnlyTested() int { return 1 } // want `\[unreached\] lib\.OnlyTested is reached by no main in cmd/, examples/ or bench/`

func DeadExported() int { // want `\[unreached\] lib\.DeadExported is reached by no main`
	return func() int { return deadHelper() }()
}

func deadHelper() int { return 2 } // want `\[unreached\] lib\.deadHelper is reached by no main`

//rbvet:ignore unreached — fixture: a reference other packages' tests drive
func Reference() int { return 3 }

// The directive below outlived the function it excused.
//
//rbvet:ignore unreached — fixture: excused a deleted function // want `\[staleignore\] //rbvet:ignore unreached suppresses no diagnostic`
func Kept() string { return "" }
