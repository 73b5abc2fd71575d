package fixture_test

import (
	"fmt"
	"time"

	"fixture"
)

// The external test package uses the facade as an importing module
// would: its uses of Facade's Field and Method count. Its raw time call
// is a test file's, which TestNoRawTime does not count.
func Example() {
	_ = time.Now()
	f := fixture.Facade{Field: 1}
	f.Method()
	fmt.Println(f.Field)
	// Output: 1
}
