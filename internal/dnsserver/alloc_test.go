package dnsserver

import (
	"bytes"
	"testing"
	"time"

	"sendervalid/internal/dns"
)

// The log codec promises zero-allocation encode into a reused buffer
// and at-most-two-allocations decode per batch with a reused parser
// (one string shared by every string field, plus one slab shared by
// every Rest): per line on the serial path, per chunk on the parallel
// one. These tests pin that contract so a regression shows up as a test
// failure, not just a drifting benchmark number.

func allocTestEntry() LogEntry {
	return LogEntry{
		Time:      time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC),
		Name:      "x.t07.m000042.spf-test.dns-lab.example.",
		Type:      dns.TypeTXT,
		TestID:    "t07",
		MTAID:     "m000042",
		Rest:      []string{"l1"},
		Transport: "udp",
		OverIPv6:  true,
		Remote:    "198.51.100.7:53",
	}
}

func TestAppendLogJSONZeroAlloc(t *testing.T) {
	e := allocTestEntry()
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendLogJSON(buf[:0], e)
	})
	if allocs != 0 {
		t.Errorf("AppendLogJSON into reused buffer: %v allocs/op, want 0", allocs)
	}
}

func TestLogLineParseAllocBudget(t *testing.T) {
	line := AppendLogJSON(nil, allocTestEntry())
	var p logLineParser
	if _, err := p.parse(line); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.parse(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("parse with reused parser: %v allocs/op, want <= 2 (backing string + Rest)", allocs)
	}

	// Without a rest array the slice allocation disappears too.
	noRest := allocTestEntry()
	noRest.Rest = nil
	line = AppendLogJSON(line[:0], noRest)
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := p.parse(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("parse without rest: %v allocs/op, want <= 1 (backing string)", allocs)
	}
}

// TestDecodeChunkAllocBudget: a chunk costs its two allocations
// whatever its line count, once the parser's buffers and the entry
// slice have grown to it.
func TestDecodeChunkAllocBudget(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		var buf []byte
		for i := 0; i < n; i++ {
			buf = AppendLogJSON(buf, allocTestEntry())
		}
		var p logLineParser
		entries, err := decodeChunk(&p, 1, buf, nil)
		if err != nil || len(entries) != n {
			t.Fatalf("%d lines: %d entries, %v", n, len(entries), err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			entries, _ = decodeChunk(&p, 1, buf, entries)
		})
		if allocs > 2 {
			t.Errorf("decodeChunk of %d lines: %v allocs/op, want <= 2 (arena string + Rest slab)", n, allocs)
		}
	}
}

// TestParForEachLogJSONAllocBudget pins what the pipeline costs per
// 256 KiB chunk once its pool is warm: the difference between scanning
// a log and one twice its size, so the scan's fixed cost (channels,
// goroutines, the workers' parsers growing their buffers) cancels out.
// What is left is the chunk's two decode allocations; a chunk whose
// buffer or entry slice came from the allocator instead of the pool
// costs at least one more.
func TestParForEachLogJSONAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the pool pin needs a run without -race (make telemetry-alloc)")
	}
	small, _ := parTestLog(t, 20000) // ~2.5 MB
	large, _ := parTestLog(t, 40000)
	chunks := func(jsonl []byte) float64 { return float64(len(jsonl) / parChunkSize) }
	for _, workers := range []int{1, 2} {
		allocs := func(jsonl []byte) float64 {
			scan := func() {
				if err := ParForEachLogJSONOrdered(bytes.NewReader(jsonl), workers, func(LogEntry) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			scan() // warm the pool
			return testing.AllocsPerRun(10, scan)
		}
		// Measured 2.00–2.08 on 2 vCPUs; the bound leaves half an
		// allocation per chunk for the GC emptying the pool mid-scan.
		perChunk := (allocs(large) - allocs(small)) / (chunks(large) - chunks(small))
		if perChunk > 2.5 {
			t.Errorf("workers=%d: %.2f allocs per chunk, want <= 2.5 (arena string + Rest slab)", workers, perChunk)
		}
	}
}

// TestCountQueryAllocs pins the per-policy count on the serving path:
// a served label and an unserved one are both a lookup in the table
// fixed at start and an atomic add.
func TestCountQueryAllocs(t *testing.T) {
	zone := &Zone{Suffix: testSuffix, Responders: map[string]Responder{"t01": nil}}
	zone.compile()
	var m serverMetrics
	m.init([]*Zone{zone})
	if n := testing.AllocsPerRun(1000, func() {
		m.countQuery("t01")
		m.countQuery("x001")
	}); n != 0 {
		t.Errorf("countQuery: %v allocs/op, want 0", n)
	}
}
