// Package fixture checks the precision of TestExportsHaveReaders: the
// rules flag exactly the findings ../fixture.golden lists, one true
// positive per rule, and none of the exemptions or write forms in
// internal/cases.
package fixture

import "fixture/internal/cases"

// Facade is public API, so its unused method and field are exempt.
type Facade = cases.Facade

// Run is the fixture's one reader.
func Run() { cases.Run() }
