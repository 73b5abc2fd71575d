//go:build !goexperiment.synctest

package experiment

import (
	"os"
	"os/exec"
	"testing"
)

// TestStudyBubbleGolden brings TestStudyBubble, and with it the
// report's golden file, under a plain `go test ./...`, which does not
// build goexperiment.synctest files: it runs that test in a
// `GOEXPERIMENT=synctest go test` subprocess. The build tag keeps the
// subprocess from building this test again.
func TestStudyBubbleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with GOEXPERIMENT=synctest and runs the 4000-domain study in a bubble")
	}
	cmd := exec.Command("go", "test", "-count=1", "-run", "^TestStudyBubble$", ".")
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOEXPERIMENT=synctest go test -run '^TestStudyBubble$': %v\n%s", err, out)
	}
}
