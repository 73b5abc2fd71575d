package cases

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// Box.Flush is never called, but the live func Flush shares its name:
// rule (a).
type Box struct{}

func (Box) Flush() {}

func Flush() {}

// Knobs holds Unset, read but never written (rule b); Filled, written
// only by the defaulting fill in fill, which is no write (rule b); and
// Unread, written but never read (rule c).
type Knobs struct {
	Unset  int
	Filled int
	Unread int
}

func (k *Knobs) fill() {
	if k.Filled <= 0 {
		k.Filled = 3
	}
}

// Writes has one field per write form; each is read once in Run.
type Writes struct {
	Keyed    int
	Assigned int
	Counted  int
	Flagged  string
	Tally    tally
	Nested   struct{ N int }
}

type tally struct{ n int }

func (t *tally) add() { t.n++ }

// Pair is written only by a positional composite literal.
type Pair struct{ A, B int }

// Name.String is called by fmt through fmt.Stringer.
type Name string

func (n Name) String() string { return string(n) }

// Err.Error and Err.Unwrap are called through error and errors.Unwrap.
type Err struct{}

func (Err) Error() string { return "err" }
func (Err) Unwrap() error { return nil }

// Facade is aliased by api.go. Its Field and Method are used only by
// the root example_test.go, which counts; Idle is used by nothing.
type Facade struct{ Field int }

func (Facade) Method() {}

func (Facade) Idle() {}

// Tagged's field carries a struct tag.
type Tagged struct {
	Hidden int `json:"-"`
}

// Report's field is read by encoding/json.
type Report struct{ Score int }

func Run() {
	Flush()
	_, _ = Box{}, Tagged{}
	var k Knobs
	k.fill()
	k.Unread = 1
	w := Writes{Keyed: 1}
	w.Assigned = 2
	w.Counted++
	flag.StringVar(&w.Flagged, "flagged", "", "")
	w.Tally.add()
	w.Nested.N++
	p := Pair{1, 2}
	fmt.Println(k.Unset, w.Keyed, w.Assigned, w.Counted, w.Flagged, w.Tally, w.Nested.N, p.A, p.B, Name("x"), Err{})
	_ = json.NewEncoder(os.Stdout).Encode(Report{Score: 1})
}
