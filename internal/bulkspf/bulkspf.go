// Package bulkspf evaluates SPF for a stream of (ip, helo, mail-from)
// tuples with a bounded worker pool sharing one resolver — the batch
// shape the measurement study's log replays produce, where millions of
// observed SMTP connections are re-validated offline.
//
// Input is JSONL, one Tuple per line; output is JSONL, one Result per
// line, in input order. All workers share the caller's
// resolver: the resolver's cache and singleflight dedup are
// what make N workers cost less than N times the DNS traffic, since
// real mail streams repeat sending domains heavily.
package bulkspf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sendervalid/internal/jsonwire"
	"sendervalid/internal/smtp"
	"sendervalid/internal/spf"
	"sendervalid/internal/trace"
)

// Tuple is one connection to validate. Domain is optional: when empty
// the mail-from domain is used, matching check_host()'s definition.
type Tuple struct {
	IP       string `json:"ip"`
	Helo     string `json:"helo,omitempty"`
	MailFrom string `json:"mail_from,omitempty"`
	Domain   string `json:"domain,omitempty"`
}

// Result is one evaluated tuple. Seq is the zero-based input line
// index (blank lines excluded), which joins a result to its input.
type Result struct {
	Seq         int        `json:"seq"`
	IP          string     `json:"ip"`
	Domain      string     `json:"domain,omitempty"`
	MailFrom    string     `json:"mail_from,omitempty"`
	Helo        string     `json:"helo,omitempty"`
	Result      spf.Result `json:"result"`
	Explanation string     `json:"explanation,omitempty"`
	Lookups     int        `json:"lookups,omitempty"`
	VoidLookups int        `json:"void_lookups,omitempty"`
	// Detail carries the error behind temperror/permerror results.
	Detail string `json:"detail,omitempty"`
	// Err is set on lines that never reached evaluation (bad JSON,
	// unparseable IP, no domain); Result is permerror for those.
	Err string `json:"error,omitempty"`
	// Micros is the evaluation wall time in microseconds.
	Micros int64 `json:"micros"`
}

// appendResultJSON appends r as one output line, including the
// trailing newline, byte-identical to json.Encoder.Encode of r
// (FuzzAppendResultJSON pins the equivalence). The writer encodes every
// result into one reused buffer, without reflection.
func appendResultJSON(dst []byte, r *Result) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(r.Seq), 10)
	dst = append(dst, `,"ip":`...)
	dst = jsonwire.AppendString(dst, r.IP)
	dst = appendOptString(dst, `,"domain":`, r.Domain)
	dst = appendOptString(dst, `,"mail_from":`, r.MailFrom)
	dst = appendOptString(dst, `,"helo":`, r.Helo)
	dst = append(dst, `,"result":`...)
	dst = jsonwire.AppendString(dst, string(r.Result))
	dst = appendOptString(dst, `,"explanation":`, r.Explanation)
	if r.Lookups != 0 {
		dst = append(dst, `,"lookups":`...)
		dst = strconv.AppendInt(dst, int64(r.Lookups), 10)
	}
	if r.VoidLookups != 0 {
		dst = append(dst, `,"void_lookups":`...)
		dst = strconv.AppendInt(dst, int64(r.VoidLookups), 10)
	}
	dst = appendOptString(dst, `,"detail":`, r.Detail)
	dst = appendOptString(dst, `,"error":`, r.Err)
	dst = append(dst, `,"micros":`...)
	dst = strconv.AppendInt(dst, r.Micros, 10)
	return append(dst, '}', '\n')
}

// appendOptString appends an omitempty string field: its key and
// value, or nothing when s is empty.
func appendOptString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return jsonwire.AppendString(append(dst, key...), s)
}

// Config configures an Evaluator.
type Config struct {
	// Resolver is shared by all workers; it must be safe for
	// concurrent use (internal/resolver is).
	Resolver spf.Resolver
	// SPF carries the evaluation knobs, applied identically by every
	// worker.
	SPF spf.Options
	// Workers is the evaluation concurrency. Zero means GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, opens one root span per evaluated tuple
	// ("bulkspf.tuple"); the SPF checker and resolver hang their
	// spans off it through the context.
	Tracer *trace.Tracer
}

// Stats summarizes one Run.
type Stats struct {
	// Evaluated counts tuples that reached check_host().
	Evaluated uint64
	// Errored counts input lines that never reached evaluation.
	Errored uint64
	// Results counts output lines by SPF result.
	Results map[spf.Result]uint64
	// Elapsed is the wall time of the Run.
	Elapsed time.Duration
}

// Evaluator runs bulk SPF validation. Create with New; one Evaluator
// may serve multiple sequential Runs.
type Evaluator struct {
	cfg Config
}

// New creates an Evaluator from cfg.
func New(cfg Config) *Evaluator { return &Evaluator{cfg: cfg} }

// segmentLines caps the lines in one segment, the unit the reader
// copies, the workers share out and the writer emits.
const segmentLines = 128

// segmentsAhead is how many dispatched segments may wait for the
// writer: the backpressure window between the reader and the output.
const segmentsAhead = 4

// segment is a run of consecutive input lines moving through the
// pipeline together. The reader copies the lines into buf; workers
// claim them one at a time through next and store each result in res;
// done counts the lines not yet evaluated.
type segment struct {
	seq  int // seq of the first line
	buf  []byte
	ends []int // line i is buf[ends[i-1]:ends[i]]
	res  []Result
	next atomic.Int64
	done sync.WaitGroup
}

func (s *segment) line(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.buf[start:s.ends[i]]
}

// Run streams tuples from in, evaluates them on the worker pool, and
// writes JSONL results to out. It returns when the input is exhausted
// and all results are written, or when ctx is cancelled. Input lines
// that cannot be parsed, however long, become permerror results with
// Err set; they do not abort the run.
func (e *Evaluator) Run(ctx context.Context, in io.Reader, out io.Writer) (Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	work := make(chan *segment, segmentsAhead*workers) // up to workers hand-offs per segment order holds
	order := make(chan *segment, segmentsAhead)        // segments in input order for the writer
	readErr := make(chan error, 1)
	go func() { readErr <- read(ctx, in, workers, work, order) }()

	// Workers. Each carries its own Checker (Checker is cheap; the
	// shared state that matters — cache, singleflight — lives in the
	// resolver). A worker given a segment evaluates its lines until
	// none is left unclaimed, even mid-cancellation, so every segment
	// the writer holds is guaranteed to complete.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checker := &spf.Checker{Resolver: e.cfg.Resolver, Options: e.cfg.SPF}
			for s := range work {
				for i := int(s.next.Add(1)) - 1; i < len(s.res); i = int(s.next.Add(1)) - 1 {
					s.res[i] = e.eval(ctx, checker, s.seq+i, s.line(i))
					s.done.Done()
				}
			}
		}()
	}

	// Writer (this goroutine). A downstream write error cancels the
	// pipeline but keeps draining so the reader and workers can exit.
	start := time.Now()
	stats := Stats{Results: make(map[spf.Result]uint64)}
	bw := bufio.NewWriter(out)
	var line []byte
	var werr error
	for s := range order {
		s.done.Wait()
		for i := range s.res {
			r := &s.res[i]
			stats.Results[r.Result]++
			if r.Err != "" {
				stats.Errored++
			} else {
				stats.Evaluated++
			}
			if werr == nil {
				line = appendResultJSON(line[:0], r)
				if _, werr = bw.Write(line); werr != nil {
					cancel()
				}
			}
		}
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	if err := bw.Flush(); werr == nil {
		werr = err
	}
	if werr != nil {
		return stats, fmt.Errorf("bulkspf: writing results: %w", werr)
	}
	if err := <-readErr; err != nil {
		return stats, err
	}
	return stats, ctx.Err()
}

// read cuts in into segments of up to segmentLines non-blank lines and
// dispatches each. A segment also closes when its next line is not yet
// buffered, so a trickling input is evaluated as it arrives; the last
// line never has one buffered, so no segment is left over.
func read(ctx context.Context, in io.Reader, workers int, work, order chan<- *segment) error {
	defer close(work)
	defer close(order)
	lr := jsonwire.NewLineReader(in)
	s := &segment{}
	for lr.Next() {
		if line := bytes.TrimSpace(lr.Bytes()); len(line) > 0 {
			s.buf = append(s.buf, line...)
			s.ends = append(s.ends, len(s.buf))
		}
		if len(s.ends) == segmentLines || len(s.ends) > 0 && !lr.Ready() {
			if err := s.dispatch(ctx, workers, work, order); err != nil {
				return err
			}
			s = &segment{seq: s.seq + len(s.ends)}
		}
	}
	return lr.Err()
}

// dispatch hands s to min(workers, lines) workers, then to the
// writer. Work goes out before order, so the writer never waits on a
// segment no worker will see.
func (s *segment) dispatch(ctx context.Context, workers int, work, order chan<- *segment) error {
	s.res = make([]Result, len(s.ends))
	s.done.Add(len(s.ends))
	for range min(workers, len(s.ends)) {
		select {
		case work <- s:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case order <- s:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// decodeTuple is the fast tier of tuple decoding: it takes a line that
// is '{' then Tuple's exact keys, in any order, each with a plain
// string value, and nothing else (jsonwire.Cursor's canonical form).
// A later duplicate key wins, as in encoding/json. ok=false means "not
// canonical", and the caller hands the line to json.Unmarshal, the
// authority (FuzzDecodeTuple).
func decodeTuple(line []byte) (Tuple, bool) {
	var t Tuple
	c := jsonwire.NewCursor(line)
	if !c.Lit(`{"`) {
		return Tuple{}, false
	}
	for {
		var dst *string
		switch {
		case c.Lit(`ip":"`):
			dst = &t.IP
		case c.Lit(`mail_from":"`):
			dst = &t.MailFrom
		case c.Lit(`helo":"`):
			dst = &t.Helo
		case c.Lit(`domain":"`):
			dst = &t.Domain
		default:
			return Tuple{}, false
		}
		v, ok := c.RawStr()
		if !ok {
			return Tuple{}, false
		}
		*dst = string(v)
		if c.End() {
			return t, true
		}
		if !c.Lit(`,"`) {
			return Tuple{}, false
		}
	}
}

// eval turns one input line into a Result.
func (e *Evaluator) eval(ctx context.Context, c *spf.Checker, seq int, line []byte) Result {
	r := Result{Seq: seq}
	fail := func(msg string) Result {
		r.Result = spf.PermError
		r.Err = msg
		return r
	}
	tup, ok := decodeTuple(line)
	if !ok {
		if err := json.Unmarshal(line, &tup); err != nil {
			return fail("bad tuple: " + err.Error())
		}
	}
	r.IP = tup.IP
	ip, err := netip.ParseAddr(tup.IP)
	if err != nil {
		return fail("bad ip: " + err.Error())
	}
	domain := tup.Domain
	if domain == "" {
		domain = smtp.DomainOf(tup.MailFrom)
	}
	if domain == "" {
		return fail("no domain: need domain, or mail_from with one")
	}
	helo := tup.Helo
	if helo == "" {
		helo = domain
	}
	sender := tup.MailFrom
	if sender == "" {
		// check_host() with an empty MAIL FROM uses postmaster@helo
		// (RFC 7208 §2.4); make the synthesized sender explicit in the
		// output so joins against the input stay unambiguous.
		sender = "postmaster@" + helo
	}
	tctx, sp := e.cfg.Tracer.Start(ctx, "bulkspf.tuple")
	if sp != nil {
		sp.SetInt("seq", int64(seq))
		sp.SetAttr("domain", domain)
		sp.SetAttr("ip", tup.IP)
	}
	began := time.Now()
	out := c.CheckHost(tctx, ip, domain, sender, helo)
	elapsed := time.Since(began)
	if sp != nil {
		sp.SetAttr("result", string(out.Result))
		sp.SetError(out.Err)
	}
	sp.End()
	r.Domain, r.MailFrom, r.Helo = domain, sender, helo
	r.Result = out.Result
	r.Explanation = out.Explanation
	r.Lookups = out.Lookups
	r.VoidLookups = out.VoidLookups
	if out.Err != nil {
		r.Detail = out.Err.Error()
	}
	r.Micros = elapsed.Microseconds()
	return r
}
