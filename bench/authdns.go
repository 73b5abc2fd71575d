package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/policy"
	"sendervalid/internal/wal"
)

// authdns-serve: the authoritative server composed as `cmd/authdns
// -log-file` composes it, serving C closed-loop dns.Clients that replay
// the validator query mix. Op = one client exchange (a TCP retry after
// truncation is part of its op).

// authdnsRounds splits the replays into rounds; ops_per_s and
// cpu_us_per_op are medians over the rounds, so one disturbed stretch
// of the window does not decide them.
const authdnsRounds = 20

type authdnsInstance struct {
	cfg     config
	rec     *recorder
	srv     *dnsserver.Server
	addr    string
	async   *dnsserver.AsyncLog
	walSink *dnsserver.WALSink
	logPath string
	mix     []policyMix
	// sweeps is how many times each round replays every policy.
	sweeps int

	serving *inflight
	closed  bool
}

func setupAuthDNS(cfg config, rec *recorder) (instance, error) {
	in := &authdnsInstance{cfg: cfg, rec: rec}
	var err error
	if in.mix, err = recordMix(); err != nil {
		return nil, err
	}
	perSweep, _ := mixSize(in.mix)
	in.sweeps = max(1, cfg.scaled(22000, 0)/(perSweep*authdnsRounds))

	// cmd/authdns's -log-file defaults: group-commit fsync, 256 MiB
	// rotation, a 4096-entry async buffer.
	in.logPath = filepath.Join(cfg.OutDir, "authdns-queries.wal")
	in.walSink, err = dnsserver.NewWALSink(in.logPath, wal.Options{Sync: wal.SyncInterval, RotateBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	var sink dnsserver.Sink = in.walSink
	zone := testZone()
	if rec != nil {
		in.serving = newInflight()
		sink = &sinkShim{inner: sink, rec: rec, serving: in.serving, name: spanDnsserverLogSink}
		for id, r := range zone.Responders {
			zone.Responders[id] = respondShim{inner: r, rec: rec, serving: in.serving}
		}
	}
	in.async = dnsserver.NewAsyncLog(sink, 4096)
	var log dnsserver.Sink = in.async
	if rec != nil {
		log = &sinkShim{inner: log, rec: rec, serving: in.serving, name: spanDnsserverLogAppend, handoff: true}
	}
	notify := &policy.NotifyEmailConfig{
		Suffix: notifySuffix, SenderV4: probeAddr, Contact: contact, TimeScale: 1e-9,
	}
	in.srv = &dnsserver.Server{
		Zones: []*dnsserver.Zone{
			zone,
			{Suffix: notifySuffix, Contact: dnsserver.FormatContact(contact), LabelDepth: 1, Default: notify.Responder()},
		},
		Log: log,
	}
	bound, err := in.srv.Start()
	if err != nil {
		in.close()
		return nil, err
	}
	in.addr = bound.String()
	return in, nil
}

// close stops the server, then drains and closes the log, in the order
// cmd/authdns shuts down.
func (in *authdnsInstance) close() {
	if in.closed {
		return
	}
	in.closed = true
	shutdownServer(in.srv)
	in.async.Close()
	_ = in.walSink.Close()
}

func (in *authdnsInstance) run(res *result) error {
	perSweep, tcpPerSweep := mixSize(in.mix)
	jobsPerRound := in.sweeps * len(in.mix)
	opsPerRound := int64(in.sweeps * perSweep)
	ops := opsPerRound * authdnsRounds
	res.Sizes["exchanges"] = ops
	res.Sizes["queries_per_sweep"] = int64(perSweep)
	res.Sizes["tcp_retries_per_sweep"] = int64(tcpPerSweep)
	res.Sizes["rounds"] = authdnsRounds

	clients := make([]*dns.Client, in.cfg.Clients)
	var wire *wireDialer
	if in.rec != nil {
		wire = &wireDialer{inner: &netDialer, rec: in.rec, name: spanDnsWire, serving: in.serving}
		wire.spans.Store(true)
	}
	lat := make([][]int64, len(clients))
	for i := range clients {
		clients[i] = &dns.Client{Timeout: 2 * time.Second}
		if wire != nil {
			clients[i].Dialer = wire
		}
		lat[i] = make([]int64, 0, int(ops)/len(clients)+perSweep)
	}

	var failed, opSeq atomic.Int64
	var firstErr atomic.Value
	ctx := context.Background()
	var rates, cpus []float64
	for round := 0; round < authdnsRounds; round++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		win := startWindow()
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := clients[c]
				for {
					j := next.Add(1) - 1
					if j >= int64(jobsPerRound) {
						return
					}
					id := int64(round*jobsPerRound) + j
					label := fmt.Sprintf("m%06d", id+1)
					for _, q := range in.mix[id%int64(len(in.mix))].Queries {
						name := q.name(label)
						msg := new(dns.Message).SetQuestion(name, q.Type)
						opCtx, done := in.beginOp(ctx, opSeq.Add(1), name, q.Type)
						t0 := time.Now()
						resp, err := client.Exchange(opCtx, msg, in.addr)
						lat[c] = append(lat[c], int64(time.Since(t0)))
						done()
						if err != nil || resp.RCode != q.RCode || len(resp.Answers) != q.Answers {
							failed.Add(1)
							if err == nil {
								err = fmt.Errorf("%s %s: rcode %v with %d answers, set-up recorded %v with %d",
									name, q.Type, resp.RCode, len(resp.Answers), q.RCode, q.Answers)
							}
							firstErr.CompareAndSwap(nil, err)
						}
					}
				}
			}(c)
		}
		wg.Wait()
		wall, cpu := win.stop()
		rates = append(rates, float64(opsPerRound)/wall.Seconds())
		cpus = append(cpus, float64(cpu.Microseconds())/float64(opsPerRound))
	}
	panics := in.srv.Panics()
	in.close()

	res.Attempted = ops
	res.Failed = failed.Load() + int64(in.async.Dropped())
	all := mergeSorted(lat)
	res.Samples = int64(len(all))
	res.set("ops_per_s", median(rates))
	res.set("cpu_us_per_op", median(cpus))
	res.set("p50_ms", percentileMs(all, 0.50))
	res.set("p99_ms", percentileMs(all, 0.99))

	// Output checks.
	if n := failed.Load(); n > 0 {
		res.failCheck("%d of %d exchanges failed or differed from the set-up recording; first: %v", n, ops, firstErr.Load())
	}
	if panics != 0 {
		res.failCheck("server recovered %d responder panics", panics)
	}
	served := ops + int64(authdnsRounds*in.sweeps*tcpPerSweep)
	logged, err := countWALRecords(in.logPath)
	if err != nil {
		return err
	}
	if dropped := int64(in.async.Dropped()); logged+dropped != served {
		res.failCheck("WAL holds %d entries + %d dropped, server was sent %d queries", logged, dropped, served)
	} else if dropped > 0 {
		res.failCheck("AsyncLog dropped %d entries", dropped)
	}

	if in.rec != nil {
		stats := rollUp(in.rec.all())
		checkSelfTimes(res, stats)
		res.set("dns.client_self_s", stats[spanDnsExchange].Self.Seconds())
		res.set("dns.wire_rtt_s", stats[spanDnsWire].Total.Seconds())
		res.set("dns.serve_other_s", stats[spanDnsWire].Self.Seconds())
		res.set("dns.tcp_fallbacks", float64(wire.tcp.Load()))
		res.set("policy.respond_s", stats[spanPolicyRespond].Total.Seconds())
		res.set("policy.responds", float64(stats[spanPolicyRespond].Count))
		res.set("dnsserver.log_append_s", stats[spanDnsserverLogAppend].Total.Seconds())
		res.set("dnsserver.log_sink_s", stats[spanDnsserverLogSink].Total.Seconds())
		res.set("dnsserver.log_dropped", float64(in.async.Dropped()))
		if fi, err := os.Stat(in.logPath); err == nil {
			res.set("dnsserver.log_bytes", float64(fi.Size()))
		}
	}
	return nil
}

// beginOp opens the op's root span on a traced run; done closes it.
func (in *authdnsInstance) beginOp(ctx context.Context, id int64, name string, t dns.Type) (context.Context, func()) {
	if in.rec == nil {
		return ctx, func() {}
	}
	root := opCtx{trace: id, key: wireKey{name: name, typ: t}}
	self, start := in.rec.begin(root)
	return withOp(ctx, self), func() { in.rec.end(spanDnsExchange, root, self, start) }
}

// countWALRecords replays the log and returns how many framed records
// it holds; a torn tail is an error here, the log was closed cleanly.
func countWALRecords(path string) (int64, error) {
	s, err := dnsserver.OpenLogStream(path)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if _, err := io.Copy(io.Discard, s); err != nil {
		return 0, err
	}
	st := s.Stats()
	if st.Truncated {
		return 0, fmt.Errorf("log %s has a torn tail (%d bytes dropped)", path, st.DroppedBytes)
	}
	return int64(st.Records), nil
}
