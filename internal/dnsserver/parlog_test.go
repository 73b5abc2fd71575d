package dnsserver

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
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

// TestParForEachLogJSONMatchesSerial drives every worker count,
// including the GOMAXPROCS default (0) and the serial short-circuit
// (1): each must deliver exactly what ForEachLogJSON delivers, in the
// same order.
func TestParForEachLogJSONMatchesSerial(t *testing.T) {
	jsonl, _ := parTestLog(t, 20000) // ~2.5 MB, ~10 chunks
	want, err := ReadLogJSON(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatalf("serial reference: %v", err)
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
				t.Fatalf("got %d entries, want the serial path's %d in the same order", len(got), len(want))
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

func TestParForEachLogJSONCallbackError(t *testing.T) {
	jsonl, _ := parTestLog(t, 5000)
	sentinel := errors.New("stop here")
	n := 0
	err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), 4, func(LogEntry) error {
		n++
		if n == 100 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want the callback's error unwrapped", err)
	}
	if n != 100 {
		t.Errorf("callback ran %d times, want delivery to stop at the failing call (100)", n)
	}
}

func TestParForEachLogJSONParseError(t *testing.T) {
	jsonl, _ := parTestLog(t, 5000)
	jsonl = append(jsonl, "{broken\n"...)
	tail, _ := parTestLog(t, 100)
	jsonl = append(jsonl, tail...)
	// The broken line is the file's 5001st; the serial path (workers=1)
	// and the chunked path must name it identically.
	for _, workers := range []int{1, 4} {
		err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), workers, func(LogEntry) error { return nil })
		if err == nil {
			t.Fatalf("workers=%d: malformed line not reported", workers)
		}
		if !strings.Contains(err.Error(), "reading log line 5001:") {
			t.Errorf("workers=%d: error %q does not carry the 1-based line number 5001", workers, err)
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
