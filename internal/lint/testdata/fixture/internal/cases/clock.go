package cases

import clock "time"

// started reads the wall clock through an aliased import of package
// time: TestNoRawTime counts it.
var started = clock.Now()

// frozen has a Now method of its own, not package time's: the call in
// stamp is not counted.
type frozen struct{ at clock.Time }

func (f frozen) Now() clock.Time { return f.at }

func stamp() clock.Time { return frozen{at: started}.Now() }
