package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBounds(t *testing.T) {
	v := NewCounterVec(2)
	v.With("a").Inc()
	v.With("b").Add(2)
	// Third distinct label hits the cardinality bound: both junk labels
	// share the overflow child, keeping the total exact.
	v.With("junk1").Inc()
	v.With("junk2").Inc()
	if got := v.With("a").Value(); got != 1 {
		t.Errorf("a = %d, want 1", got)
	}
	if got := v.With("junk1").Value(); got != 2 {
		t.Errorf("overflow = %d, want 2 (shared child)", got)
	}
	seen := map[string]uint64{}
	v.each(func(label string, c *Counter) { seen[label] = c.Value() })
	want := map[string]uint64{"a": 1, "b": 2, OverflowLabel: 2}
	if len(seen) != len(want) {
		t.Fatalf("each visited %v, want %v", seen, want)
	}
	for k, w := range want {
		if seen[k] != w {
			t.Errorf("each[%q] = %d, want %d", k, seen[k], w)
		}
	}
}

func TestCounterVecOverflowHiddenWhenUnused(t *testing.T) {
	v := NewCounterVec(4)
	v.With("a").Inc()
	v.each(func(label string, _ *Counter) {
		if label == OverflowLabel {
			t.Error("unused overflow child rendered")
		}
	})
}

// TestCounterVecHammer drives concurrent With/Inc across a label space
// wider than the bound while a scraper renders continuously. Under
// -race this is the lookup path's data-race regression test; in any
// mode it checks no increment is lost.
func TestCounterVecHammer(t *testing.T) {
	const (
		workers   = 8
		perWorker = 2000
		bound     = 16
		labels    = 64 // 4x the bound: plenty of overflow traffic
	)
	v := NewCounterVec(bound)
	reg := NewRegistry()
	reg.MustCounterVec("hammer_total", "hammer", "k", v)

	stopScrape := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
				var b strings.Builder
				_ = reg.WritePrometheus(&b)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.With(fmt.Sprintf("l%02d", (w*perWorker+i)%labels)).Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stopScrape)
	scrapes.Wait()

	var total uint64
	v.each(func(_ string, c *Counter) { total += c.Value() })
	if total != workers*perWorker {
		t.Fatalf("total = %d, want %d", total, workers*perWorker)
	}
}
