// Package fixture checks the precision of TestExportsHaveReaders: the
// rules flag exactly the findings ../fixture.golden lists, one true
// positive per rule and a facade member only an in-package test file
// uses, and none of the exemptions or write forms in internal/cases.
package fixture

import "fixture/internal/cases"

// Facade is public API: a member the root example_test.go uses is
// used, and one nothing uses is reported.
type Facade = cases.Facade

// Run is the fixture's one reader.
func Run() { cases.Run() }
