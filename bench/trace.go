package main

import (
	"bufio"
	"context"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary, recorded by the shims in
// this directory around the modules' public entry points. Spans of one
// op share Trace; Parent is the span that caused this one (0 = root).
// Start and End are nanoseconds since the recorder was created.
type span struct {
	Name   spanName
	Trace  int64
	ID     int64
	Parent int64
	Start  int64
	End    int64
}

// spanName names a span. It is an index, not a string, so that the
// span arrays hold no pointers and the collector never scans them:
// a traced authdns-serve run keeps over a million spans.
type spanName uint8

const (
	spanBulkspfRun                      spanName = iota // bulkspf.run
	spanCampaignJournalWrite                            // campaign.journal_write
	spanCampaignTask                                    // campaign.task
	spanDnsExchange                                     // dns.exchange
	spanDnsWire                                         // dns.wire
	spanDnsserverDecodePar                              // dnsserver.decode_par
	spanDnsserverDecodeSerial                           // dnsserver.decode_serial
	spanDnsserverIngest                                 // dnsserver.ingest
	spanDnsserverLogAppend                              // dnsserver.log_append
	spanDnsserverLogSink                                // dnsserver.log_sink
	spanDnsserverLogWriteout                            // dnsserver.log_writeout
	spanExperimentAnalyze                               // experiment.analyze
	spanExperimentAnalyzeBehaviors                      // experiment.analyze_behaviors
	spanExperimentAnalyzeLookuplimits                   // experiment.analyze_lookuplimits
	spanExperimentAnalyzeSerialparallel                 // experiment.analyze_serialparallel
	spanFingerprintAnalyze                              // fingerprint.analyze
	spanIngestPass                                      // ingest.pass
	spanPolicyRespond                                   // policy.respond
	spanProbeCall                                       // probe.call
	spanResolverLookup                                  // resolver.lookup
	spanResolverWire                                    // resolver.wire
	spanSmtpDial                                        // smtp.dial
	spanSmtpReplyWait                                   // smtp.reply_wait
	spanSmtpWrite                                       // smtp.write
	spanSpfCheckhost                                    // spf.checkhost
	spanWalReplay                                       // wal.replay
)

var spanNames = [...]string{
	spanBulkspfRun:                      "bulkspf.run",
	spanCampaignJournalWrite:            "campaign.journal_write",
	spanCampaignTask:                    "campaign.task",
	spanDnsExchange:                     "dns.exchange",
	spanDnsWire:                         "dns.wire",
	spanDnsserverDecodePar:              "dnsserver.decode_par",
	spanDnsserverDecodeSerial:           "dnsserver.decode_serial",
	spanDnsserverIngest:                 "dnsserver.ingest",
	spanDnsserverLogAppend:              "dnsserver.log_append",
	spanDnsserverLogSink:                "dnsserver.log_sink",
	spanDnsserverLogWriteout:            "dnsserver.log_writeout",
	spanExperimentAnalyze:               "experiment.analyze",
	spanExperimentAnalyzeBehaviors:      "experiment.analyze_behaviors",
	spanExperimentAnalyzeLookuplimits:   "experiment.analyze_lookuplimits",
	spanExperimentAnalyzeSerialparallel: "experiment.analyze_serialparallel",
	spanFingerprintAnalyze:              "fingerprint.analyze",
	spanIngestPass:                      "ingest.pass",
	spanPolicyRespond:                   "policy.respond",
	spanProbeCall:                       "probe.call",
	spanResolverLookup:                  "resolver.lookup",
	spanResolverWire:                    "resolver.wire",
	spanSmtpDial:                        "smtp.dial",
	spanSmtpReplyWait:                   "smtp.reply_wait",
	spanSmtpWrite:                       "smtp.write",
	spanSpfCheckhost:                    "spf.checkhost",
	spanWalReplay:                       "wal.replay",
}

func (n spanName) String() string { return spanNames[n] }

// recorder keeps spans in memory until the run ends. A nil *recorder
// means tracing is off: workloads then install no shims at all, and
// begin and end on it do nothing, so code that brackets a call with
// them need not ask.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	shards [32]spanShard
}

type spanShard struct {
	mu    sync.Mutex
	spans []span
	_     [40]byte // keep neighbouring shards' locks off one cache line
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// opCtx is a span's identity as seen by its children.
type opCtx struct {
	trace int64
	span  int64
	// key, on authdns-serve, is how server-side shims find the wire
	// span of the exchange they serve (see inflight).
	key wireKey
}

type opKey struct{}

func withOp(ctx context.Context, op opCtx) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opFrom(ctx context.Context) opCtx {
	op, _ := ctx.Value(opKey{}).(opCtx)
	return op
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent and returns its identity and start.
func (r *recorder) begin(parent opCtx) (opCtx, int64) {
	if r == nil {
		return opCtx{}, 0
	}
	return opCtx{trace: parent.trace, span: r.nextID.Add(1), key: parent.key}, r.now()
}

// end closes a span opened by begin, now, and returns its duration.
func (r *recorder) end(name spanName, parent, self opCtx, start int64) time.Duration {
	if r == nil {
		return 0
	}
	end := r.now()
	r.record(name, parent, self, start, end)
	return time.Duration(end - start)
}

// record stores a finished span.
func (r *recorder) record(name spanName, parent, self opCtx, start, end int64) {
	sh := &r.shards[self.span%int64(len(r.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{Name: name, Trace: self.trace, ID: self.span, Parent: parent.span, Start: start, End: end})
	sh.mu.Unlock()
}

func (r *recorder) all() []span {
	var out []span
	for i := range r.shards {
		out = append(out, r.shards[i].spans...)
	}
	return out
}

// layerStat is the per-name roll-up of the span set.
type layerStat struct {
	Count int64
	Total time.Duration
	// Self is Total minus the part of each span's interval that its
	// child spans cover.
	Self time.Duration
}

// rollUp sums spans by name and derives self times. Children are
// clipped to their parent's interval, so a child that runs after its
// parent returned (the async log drain) takes nothing from it.
func rollUp(spans []span) map[spanName]layerStat {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	covered := make(map[int64]int64, len(spans)) // parent id -> ns its children cover
	for i := range spans {
		s := &spans[i]
		p := byID[s.Parent]
		if p == nil {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	out := map[spanName]layerStat{}
	for i := range spans {
		s := &spans[i]
		st := out[s.Name]
		d := s.End - s.Start
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - covered[s.ID])
		out[s.Name] = st
	}
	return out
}

// writeSpans writes the span set as a JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	_, _ = w.WriteString("[\n")
	for i := range spans {
		s := &spans[i]
		buf = buf[:0]
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, s.Name.String())
		buf = append(buf, `,"trace":`...)
		buf = strconv.AppendInt(buf, s.Trace, 10)
		buf = append(buf, `,"id":`...)
		buf = strconv.AppendInt(buf, s.ID, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, s.Parent, 10)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, '}')
		if i < len(spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		_, _ = w.Write(buf) // a failed write surfaces through Flush
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
