// Package cmdtest is test support for the serving commands: a buffer a
// test may read while the command under test is still writing to it,
// and a wait for a line the command announces.
package cmdtest

import (
	"bytes"
	"regexp"
	"sync"
	"testing"
	"time"
)

// Buffer is a bytes.Buffer safe to read while a running command
// writes to it.
type Buffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *Buffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *Buffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// WaitFor polls b until pattern matches and returns the submatches; a
// serving command announces its bound addresses this way. It fails the
// test after five seconds.
func WaitFor(t testing.TB, b *Buffer, pattern string) []string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if m := re.FindStringSubmatch(b.String()); m != nil {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q in output after 5s: %q", pattern, b.String())
		}
	}
}
