// Package lib is the library of the reachability fixture.
package lib

// T carries a method.
type T struct{}

// Used is reached from main.
func Used() int { return T{}.Seamed() }

// Unused is reached from nowhere.
func Unused() int {
	return 2
}

// Seamed is reached from main, so its seam directive is wrong.
//
//wafe:seam called from a test
func (T) Seamed() int { return 1 }

// Hook is reached from no binary, as its seam directive says.
//
//wafe:seam called from a test
func Hook() int { return 3 }

//wafe:seam left behind by a deleted function
