// Package bench stands for a benchmark module that requires the module
// under test: every function of its non-test files is a root.
package bench

import "fixture/lib"

// Run is a root although nothing in the fixture calls it.
func Run() int { return lib.Benched() }
