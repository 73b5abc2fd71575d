package dnsserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/jsonwire"
	"sendervalid/internal/leaktest"
)

// parTestLog builds a log large enough to span several chunks so the
// splitter, the pool, and the merge all see real work.
func parTestLog(t testing.TB, n int) (jsonl []byte, entries []LogEntry) {
	t.Helper()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var buf []byte
	for i := 0; i < n; i++ {
		e := LogEntry{
			Time:      base.Add(time.Duration(i) * time.Millisecond),
			Name:      fmt.Sprintf("x.t%d.m%d.spf.example.test.", i%39, i),
			Type:      dns.TypeTXT,
			TestID:    fmt.Sprintf("t%d", i%39),
			MTAID:     fmt.Sprintf("m%d", i),
			Transport: "udp",
			Remote:    "198.51.100.7:53",
		}
		if i%7 == 0 {
			e.Rest = []string{"l1", fmt.Sprintf("l%d", i)}
		}
		if i%5 == 0 {
			e.OverIPv6 = true
		}
		entries = append(entries, e)
		buf = AppendLogJSON(buf, e)
	}
	return buf, entries
}

// lineAtATime is the reference the pipeline is held to: the log read a
// line at a time with jsonwire.LineReader and decoded with parse,
// stopping at the first bad line or read error with the entries before
// it.
func lineAtATime(r io.Reader) ([]LogEntry, error) {
	var p logLineParser
	var out []LogEntry
	lr := jsonwire.NewLineReader(r)
	for n := 1; lr.Next(); n++ {
		if blankLine(lr.Bytes()) {
			continue
		}
		e, err := p.parse(lr.Bytes())
		if err != nil {
			return out, fmt.Errorf("dnsserver: reading log line %d: %w", n, err)
		}
		out = append(out, e)
	}
	if err := lr.Err(); err != nil {
		return out, fmt.Errorf("dnsserver: reading log: %w", err)
	}
	return out, nil
}

// TestParForEachLogJSONMatchesSerial drives every worker count,
// including the GOMAXPROCS default (0) and ForEachLogJSON's one: each
// must deliver exactly what a line-at-a-time read delivers, in the same
// order.
func TestParForEachLogJSONMatchesSerial(t *testing.T) {
	jsonl, _ := parTestLog(t, 20000) // ~2.5 MB, ~10 chunks
	want, err := lineAtATime(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatalf("line-at-a-time reference: %v", err)
	}
	for _, workers := range []int{0, 1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []LogEntry
			err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), workers, func(e LogEntry) error {
				got = append(got, e)
				return nil
			})
			if err != nil {
				t.Fatalf("ParForEachLogJSONOrdered: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %d entries, want the line-at-a-time read's %d in the same order", len(got), len(want))
			}
		})
	}
}

func TestParForEachLogJSONOrderedPreservesFileOrder(t *testing.T) {
	jsonl, want := parTestLog(t, 20000)
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []LogEntry
			err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), workers, func(e LogEntry) error {
				got = append(got, e) // single-goroutine delivery: no lock
				return nil
			})
			if err != nil {
				t.Fatalf("ParForEachLogJSONOrdered: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d entries, want %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("entry %d out of order or corrupted: got %#v, want %#v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestParForEachLogJSONCallbackError: fn's error ends the scan at the
// failing call, is returned unwrapped, and leaves no goroutine behind.
func TestParForEachLogJSONCallbackError(t *testing.T) {
	jsonl, _ := parTestLog(t, 5000)
	sentinel := errors.New("stop here")
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer leaktest.Check(t)()
			n, failed := 0, false
			err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), workers, func(LogEntry) error {
				if failed {
					t.Error("fn called after it returned an error")
				}
				n++
				if n == 100 {
					failed = true
					return sentinel
				}
				return nil
			})
			if err != sentinel {
				t.Errorf("got %v, want the callback's error unwrapped", err)
			}
			if n != 100 {
				t.Errorf("callback ran %d times, want delivery to stop at the failing call (100)", n)
			}
		})
	}
}

// TestParForEachLogJSONParseError: on a bad line or a failed read,
// every worker count delivers exactly the entries a line-at-a-time read
// delivers before the failure, then returns the failure.
func TestParForEachLogJSONParseError(t *testing.T) {
	jsonl, _ := parTestLog(t, 20000)
	withBadLine := func(n int) []byte {
		at := 0
		for range n - 1 {
			at += bytes.IndexByte(jsonl[at:], '\n') + 1
		}
		return append(append(append([]byte(nil), jsonl[:at]...), "{broken\n"...), jsonl[at:]...)
	}
	boom := errors.New("disk on fire")
	half := jsonl[:len(jsonl)/2] // ends mid-line
	cases := []struct {
		name    string
		in      func() io.Reader
		want    int // entries delivered
		wantErr string
		wraps   error
	}{
		{"bad line 10", func() io.Reader { return bytes.NewReader(withBadLine(10)) }, 9, "dnsserver: reading log line 10: ", nil},
		{"bad line 15001", func() io.Reader { return bytes.NewReader(withBadLine(15001)) }, 15000, "dnsserver: reading log line 15001: ", nil},
		{"read error halfway", func() io.Reader {
			return io.MultiReader(bytes.NewReader(half), iotest.ErrReader(boom))
		}, bytes.Count(half, []byte{'\n'}), "dnsserver: reading log: disk on fire", boom},
	}
	for _, c := range cases {
		want, wantErr := lineAtATime(c.in())
		if len(want) != c.want || wantErr == nil || !strings.HasPrefix(wantErr.Error(), c.wantErr) {
			t.Fatalf("%s: the line-at-a-time reference delivers %d entries and %v", c.name, len(want), wantErr)
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				defer leaktest.Check(t)()
				var got []LogEntry
				err := ParForEachLogJSONOrdered(c.in(), workers, func(e LogEntry) error {
					got = append(got, e)
					return nil
				})
				if err == nil || !strings.HasPrefix(err.Error(), c.wantErr) {
					t.Fatalf("error %v, want one starting %q", err, c.wantErr)
				}
				if c.wraps != nil && !errors.Is(err, c.wraps) {
					t.Errorf("error %v does not wrap the read error", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("delivered %d entries before the error, want the line-at-a-time read's %d", len(got), len(want))
				}
			})
		}
	}
}

func TestParForEachLogJSONLongLinesAndBlanks(t *testing.T) {
	// One entry whose encoding dwarfs the chunk size, surrounded by
	// blank lines and normal entries.
	big := LogEntry{
		Time: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Name: strings.Repeat("a", 3*parChunkSize) + ".",
		Type: dns.TypeA,
	}
	small := LogEntry{Time: big.Time, Name: "s.", Type: dns.TypeMX}
	var jsonl []byte
	jsonl = append(jsonl, "\n  \t\n"...)
	jsonl = AppendLogJSON(jsonl, small)
	jsonl = AppendLogJSON(jsonl, big)
	jsonl = append(jsonl, '\n')
	jsonl = AppendLogJSON(jsonl, small)
	var got []LogEntry
	err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), 4, func(e LogEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatalf("ParForEachLogJSONOrdered: %v", err)
	}
	want := []LogEntry{small, big, small}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %d entries (names %v), want small, big, small",
			len(got), shortNames(got))
	}
}

func shortNames(es []LogEntry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		if len(e.Name) > 10 {
			out[i] = e.Name[:10] + "…"
		} else {
			out[i] = e.Name
		}
	}
	return out
}

func TestParForEachLogJSONEmptyAndNoTrailingNewline(t *testing.T) {
	if err := ParForEachLogJSONOrdered(bytes.NewReader(nil), 4, func(LogEntry) error {
		return errors.New("no entries expected")
	}); err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	// A final record without the trailing newline must still decode.
	jsonl, want := parTestLog(t, 3)
	jsonl = bytes.TrimSuffix(jsonl, []byte("\n"))
	var got []LogEntry
	if err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), 2, func(e LogEntry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatalf("no trailing newline: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}
