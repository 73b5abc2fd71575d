package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero value = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Value = %d, want 42", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero value = %v, want 0", g.Value())
	}
	g.Add(2.5)
	g.Add(1.5)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("Value = %v, want 3", g.Value())
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 8*1000 {
		t.Fatalf("Value = %v, want %d", g.Value(), 8*1000)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Cumulative: <=1 sees {0.5, 1}; <=2 adds 1.5; <=4 adds 3; +Inf adds 100.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 106 {
		t.Errorf("Sum = %v, want 106", s.Sum)
	}
	if got := s.Mean(); got != 106.0/5 {
		t.Errorf("Mean = %v", got)
	}
	// p100 lands in the +Inf bucket and reports the top finite bound.
	if got := s.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
	if got := s.Quantile(0); got < 0 || got > 1 {
		t.Errorf("Quantile(0) = %v, want within first bucket", got)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{
		{1, 1},
		{2, 1},
		{math.NaN()},
		{1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// The allocation pins below are the package's core contract: the
// serving hot paths increment these instruments unconditionally, so
// any allocation here is an allocation per DNS query.

func TestCounterIncAllocs(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, c.Inc); n != 0 {
		t.Fatalf("Counter.Inc allocates %v times per op", n)
	}
}

func TestGaugeAllocs(t *testing.T) {
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v times per op", n)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v times per op", n)
	}
}
