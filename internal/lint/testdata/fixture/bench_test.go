package fixture

import "testing"

// An in-package test file's uses do not count: Idle stays reported.
func BenchmarkIdle(b *testing.B) {
	for range b.N {
		Facade{}.Idle()
	}
}
