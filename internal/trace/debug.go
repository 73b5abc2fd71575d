package trace

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sendervalid/internal/telemetry"
)

// DebugHandler serves /debug/traces: the recent-span and slow-span
// rings (newest first) plus, when reg is non-nil, every histogram
// exemplar the registry currently holds — the link from an aggregate
// latency bucket back to a concrete trace ID. Query parameters:
//
//	?min=<duration>   only spans at least this slow (e.g. min=50ms)
//	?family=<name>    only spans of one family (resolver, spf, ...)
//	?n=<count>        at most n spans per section (default 50)
func (t *Tracer) DebugHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var min time.Duration
		if v := q.Get("min"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad min: "+err.Error(), http.StatusBadRequest)
				return
			}
			min = d
		}
		n := 50
		if v := q.Get("n"); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil || i < 1 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = i
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		t.writeDebug(w, min, q.Get("family"), n, reg)
	})
}

// writeDebug renders the /debug/traces document. Split from the
// handler so tests can drive it with fixed inputs.
func (t *Tracer) writeDebug(w io.Writer, min time.Duration, family string, n int, reg *telemetry.Registry) {
	fmt.Fprintf(w, "tracing: sample=%g slow=%s started=%d sampled=%d exported=%d dropped=%d promoted_slow=%d promoted_err=%d\n",
		t.sampleRate, t.slow,
		t.metrics.started.Value(), t.metrics.sampled.Value(),
		t.metrics.exported.Value(), t.metrics.dropped.Value(),
		t.metrics.promotedSlow.Value(), t.metrics.promotedErr.Value())

	writeSpanSection(w, "recent spans", t.recent.snapshot(), min, family, n)
	writeSpanSection(w, "slow spans", t.slowRing.snapshot(), min, family, n)

	if reg == nil {
		return
	}
	fmt.Fprintf(w, "\nexemplars:\n")
	found := false
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			if s.Histogram == nil {
				continue
			}
			for _, e := range s.Histogram.Exemplars {
				bound := "+Inf"
				if e.Bucket < len(s.Histogram.Bounds) {
					bound = strconv.FormatFloat(s.Histogram.Bounds[e.Bucket], 'g', -1, 64)
				}
				fmt.Fprintf(w, "  %s le=%s value=%g trace=%s\n", fam.Name, bound, e.Value, e.TraceID)
				found = true
			}
		}
	}
	if !found {
		fmt.Fprintf(w, "  (none)\n")
	}
}

// writeSpanSection renders one ring, newest first, filtered.
func writeSpanSection(w io.Writer, title string, recs []Record, min time.Duration, family string, n int) {
	fmt.Fprintf(w, "\n%s:\n", title)
	shown := 0
	for _, r := range recs {
		if shown >= n {
			break
		}
		if time.Duration(r.DurUS)*time.Microsecond < min {
			continue
		}
		if family != "" && r.Family() != family {
			continue
		}
		writeSpanLine(w, r)
		shown++
	}
	if shown == 0 {
		fmt.Fprintf(w, "  (none)\n")
	}
}

// writeSpanLine renders one record: fixed columns, then attributes and
// the failure, when present.
func writeSpanLine(w io.Writer, r Record) {
	why := r.Why
	if why == "" {
		why = "head"
	}
	fmt.Fprintf(w, "  %12.3fms %-24s trace=%s span=%s", float64(r.DurUS)/1000, r.Name, r.Trace, r.Span)
	if r.Parent != "" {
		fmt.Fprintf(w, " parent=%s", r.Parent)
	}
	fmt.Fprintf(w, " why=%s", why)
	for _, a := range r.Attrs {
		fmt.Fprintf(w, " %s=%s", a.K, a.V)
	}
	if r.Err != "" {
		fmt.Fprintf(w, " err=%q", r.Err)
	}
	fmt.Fprintln(w)
}
