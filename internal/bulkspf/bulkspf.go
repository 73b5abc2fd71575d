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
	"time"

	"sendervalid/internal/jsonwire"
	"sendervalid/internal/smtp"
	"sendervalid/internal/spf"
	"sendervalid/internal/trace"
)

// maxLineBytes bounds one input line (a tuple is tiny; the headroom is
// for pathological inputs, which error rather than split).
const maxLineBytes = 1 << 20

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

// job is one input line moving through the pipeline. res has capacity
// one so a worker's delivery never blocks, even for jobs whose result
// nobody collects after a cancellation.
type job struct {
	seq  int
	line []byte
	res  chan Result
}

// Run streams tuples from in, evaluates them on the worker pool, and
// writes JSONL results to out. It returns when the input is exhausted
// and all results are written, or when ctx is cancelled. Input lines
// that cannot be parsed become permerror results with Err set; they do
// not abort the run.
func (e *Evaluator) Run(ctx context.Context, in io.Reader, out io.Writer) (Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The backpressure window between the input reader and evaluation:
	// enough buffered jobs that no worker idles while the reader scans.
	depth := 4 * workers
	jobs := make(chan *job, depth)
	order := make(chan *job, depth) // jobs in input order for the writer

	// Reader. Every job is sent to jobs BEFORE order, so the writer
	// never waits on a job no worker will see: order is always a
	// subset (a prefix-closed one) of jobs.
	readErr := make(chan error, 1)
	go func() {
		defer close(jobs)
		defer close(order)
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 64*1024), maxLineBytes)
		seq := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			j := &job{seq: seq, line: append([]byte(nil), line...), res: make(chan Result, 1)}
			seq++
			select {
			case jobs <- j:
			case <-ctx.Done():
				readErr <- ctx.Err()
				return
			}
			select {
			case order <- j:
			case <-ctx.Done():
				readErr <- ctx.Err()
				return
			}
		}
		readErr <- sc.Err()
	}()

	// Workers. Each carries its own Checker (Checker is cheap; the
	// shared state that matters — cache, singleflight — lives in the
	// resolver). Workers drain jobs unconditionally: res has capacity
	// one, so delivery never blocks and every job the writer holds is
	// guaranteed a result even mid-cancellation.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checker := &spf.Checker{Resolver: e.cfg.Resolver, Options: e.cfg.SPF}
			for j := range jobs {
				j.res <- e.eval(ctx, checker, j)
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
	emit := func(r Result) {
		stats.Results[r.Result]++
		if r.Err != "" {
			stats.Errored++
		} else {
			stats.Evaluated++
		}
		if werr == nil {
			line = appendResultJSON(line[:0], &r)
			if _, werr = bw.Write(line); werr != nil {
				cancel()
			}
		}
	}
	for j := range order {
		emit(<-j.res)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	if err := bw.Flush(); werr == nil {
		werr = err
	}
	if err := <-readErr; err != nil {
		return stats, err
	}
	if werr != nil {
		return stats, fmt.Errorf("bulkspf: writing results: %w", werr)
	}
	return stats, nil
}

// eval turns one input line into a Result.
func (e *Evaluator) eval(ctx context.Context, c *spf.Checker, j *job) Result {
	r := Result{Seq: j.seq}
	fail := func(msg string) Result {
		r.Result = spf.PermError
		r.Err = msg
		return r
	}
	var tup Tuple
	if err := json.Unmarshal(j.line, &tup); err != nil {
		return fail("bad tuple: " + err.Error())
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
		sp.SetInt("seq", int64(j.seq))
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
