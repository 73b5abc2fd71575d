package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Metric family types, as they appear in # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one registered stream of samples: exactly one of the
// sample sources is set.
type series struct {
	labels []Label
	key    string // canonical label signature: sort + dedup + render order

	counter   *Counter
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name string
	help string
	typ  string

	series []*series
}

// Registry holds registered metrics and renders them. The zero value
// is not usable; call NewRegistry. All methods are safe for concurrent
// use; registration typically happens at startup and rendering at
// scrape time, neither on a serving hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// MustCounter registers c under name with optional constant labels.
// It panics on an invalid name or label, a name already registered
// with a different type or help, or a duplicate label set.
func (r *Registry) MustCounter(name, help string, c *Counter, labels ...Label) {
	r.add(name, help, typeCounter, &series{labels: labels, counter: c})
}

// MustCounterFunc registers a counter whose value is read from fn at
// render time — the bridge for pre-existing atomic counters owned by
// other packages (AsyncLog drops, rate-limiter refusals).
func (r *Registry) MustCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(name, help, typeCounter, &series{labels: labels, counterFn: fn})
}

// MustGaugeFunc registers a gauge read from fn at render time.
func (r *Registry) MustGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, typeGauge, &series{labels: labels, gaugeFn: fn})
}

// MustHistogram registers h under name with optional constant labels.
func (r *Registry) MustHistogram(name, help string, h *Histogram, labels ...Label) {
	r.add(name, help, typeHistogram, &series{labels: labels, hist: h})
}

func (r *Registry) add(name, help, typ string, s *series) {
	validateName(name)
	for _, l := range s.labels {
		validateLabel(l.Name)
	}
	s.key = labelKey(s.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, typ)
	for _, have := range f.series {
		if have.key == s.key {
			panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, s.key))
		}
	}
	f.series = append(f.series, s)
}

// familyLocked returns (creating if needed) the family for name,
// enforcing that re-registration agrees on type and help.
func (r *Registry) familyLocked(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("telemetry: metric %q registered with conflicting help", name))
	}
	return f
}

func validateName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func validateLabel(name string) {
	if !validLabelName(name) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", name))
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelKey renders labels in registration order as the series'
// identity and sort key: {a="x",b="y"}. Empty labels yield "".
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	appendLabels(&b, labels, "", "")
	return b.String()
}

// appendLabels writes {l1="v1",...} plus up to one extra pair to b.
// With no labels at all it writes nothing.
func appendLabels(b *strings.Builder, labels []Label, extraName, extraValue string) {
	if len(labels) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		escapeLabelValue(b, l.Value)
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		escapeLabelValue(b, extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabelValue applies the exposition-format escapes for label
// values: backslash, double quote, and newline.
func escapeLabelValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// escapeHelp applies the exposition-format escapes for HELP text:
// backslash and newline.
func escapeHelp(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// formatFloat renders a sample value: decimal shortest-form for finite
// values, and the exposition spellings NaN / +Inf / -Inf otherwise.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// reading is one series' current value as the ordered walk hands it to
// a renderer: count for counter families (kept integral so exposition
// never prints 1e+06), value for gauges, hist for histograms.
type reading struct {
	labels []Label
	count  uint64
	value  float64
	hist   *HistogramSnapshot
}

// visit calls fn once per family with its series' readings, in the one
// deterministic order every renderer shares: families sorted by name,
// series by label signature.
func (r *Registry) visit(fn func(f *family, readings []reading)) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		ordered := append([]*series(nil), f.series...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
		out := make([]reading, 0, len(ordered))
		for _, s := range ordered {
			rd := reading{labels: s.labels}
			switch {
			case s.hist != nil:
				snap := s.hist.Snapshot()
				rd.hist = &snap
			case s.counter != nil:
				rd.count = s.counter.Value()
			case s.counterFn != nil:
				rd.count = s.counterFn()
			case s.gaugeFn != nil:
				rd.value = s.gaugeFn()
			}
			out = append(out, rd)
		}
		fn(f, out)
	}
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Output is deterministic for a
// fixed registry state (see visit).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	r.visit(func(f *family, readings []reading) {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		escapeHelp(&b, f.help)
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, rd := range readings {
			switch f.typ {
			case typeHistogram:
				renderHistogram(&b, f.name, rd.labels, *rd.hist)
			case typeCounter:
				writeSample(&b, f.name, "", rd.labels, "", "", strconv.FormatUint(rd.count, 10))
			default:
				writeSample(&b, f.name, "", rd.labels, "", "", formatFloat(rd.value))
			}
		}
	})
	_, err := io.WriteString(w, b.String())
	return err
}

// renderHistogram writes the exposition triplet for one histogram
// series: cumulative _bucket lines ending at le="+Inf", then _sum and
// _count.
func renderHistogram(b *strings.Builder, name string, labels []Label, snap HistogramSnapshot) {
	for i, bound := range snap.Bounds {
		writeSample(b, name, "_bucket", labels, "le", formatFloat(bound),
			strconv.FormatUint(snap.Counts[i], 10))
	}
	writeSample(b, name, "_bucket", labels, "le", "+Inf",
		strconv.FormatUint(snap.Count, 10))
	writeSample(b, name, "_sum", labels, "", "", formatFloat(snap.Sum))
	writeSample(b, name, "_count", labels, "", "", strconv.FormatUint(snap.Count, 10))
}

// writeSample writes one exposition line:
// name suffix {labels, extra} value.
func writeSample(b *strings.Builder, name, suffix string, labels []Label, extraName, extraValue, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	appendLabels(b, labels, extraName, extraValue)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// SeriesSnapshot is one series' current value for /statusz.
type SeriesSnapshot struct {
	Labels    []Label            `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// FamilySnapshot is one metric family's state for /statusz.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every registered metric, in the same deterministic
// order WritePrometheus uses.
func (r *Registry) Snapshot() []FamilySnapshot {
	out := []FamilySnapshot{}
	r.visit(func(f *family, readings []reading) {
		fs := FamilySnapshot{Name: f.name, Type: f.typ, Help: f.help}
		for _, rd := range readings {
			ss := SeriesSnapshot{Labels: rd.labels, Value: rd.value, Histogram: rd.hist}
			if f.typ == typeCounter {
				ss.Value = float64(rd.count)
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	})
	return out
}

// WithLabel returns a copy of labels with name=value appended. The
// copy guards against append aliasing when one base label slice fans
// out into several series.
func WithLabel(labels []Label, name, value string) []Label {
	return append(append([]Label(nil), labels...), Label{Name: name, Value: value})
}

// WriteSummary prints a compact human-readable digest of the registry:
// one line per series, zero-valued counters skipped, histograms
// reduced to count/mean/p99. This is the shutdown report a long-lived
// server prints in place of a hand-rolled counter dump.
func (r *Registry) WriteSummary(w io.Writer) error {
	var b strings.Builder
	for _, fam := range r.Snapshot() {
		for _, s := range fam.Series {
			if s.Histogram != nil {
				if s.Histogram.Count == 0 {
					continue
				}
				b.WriteString(fam.Name)
				writeSummaryLabels(&b, s.Labels)
				fmt.Fprintf(&b, " count=%d mean=%s p99=%s\n",
					s.Histogram.Count,
					formatFloat(s.Histogram.Mean()),
					formatFloat(s.Histogram.Quantile(0.99)))
				continue
			}
			if fam.Type == typeCounter && s.Value == 0 {
				continue
			}
			b.WriteString(fam.Name)
			writeSummaryLabels(&b, s.Labels)
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSummaryLabels(b *strings.Builder, labels []Label) {
	appendLabels(b, labels, "", "")
}
