package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/experiment"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/wal"
)

// log-ingest: the `cmd/analyze` path — OpenLogStream, parallel ordered
// decode retaining the attributed entries, then the four analyses —
// repeated over one WAL-sink-written query log. Op = one log entry;
// every value is the median over the passes.

const (
	// ingestEntriesPerSecond sizes the log: entries per reference second.
	ingestEntriesPerSecond = 25000
	// ingestPasses is the number of timed passes; one more, untimed,
	// warms the page cache and the allocator in set-up (a first pass
	// runs ≈30% slower).
	ingestPasses = 30
	// layerPasses is how many extra passes a traced run spends on each
	// of the two measurements the analyze path itself never makes (WAL
	// replay alone, serial decode).
	layerPasses = 3
)

type ingestInstance struct {
	cfg     config
	rec     *recorder
	logPath string
	entries int64
	// mtas is the population the log was generated for; validators of
	// them validate SPF and so left entries, partial of those fetched
	// only each policy's base record.
	mtas, validators, partial int64
	// appendWall is how long the WAL sink took to write the log.
	appendWall time.Duration
	// retained holds a pass's attributed entries. It is the harness's
	// own buffer, reused from pass to pass so that growing it is not
	// part of what a pass measures.
	retained []dnsserver.LogEntry
}

func setupIngest(cfg config, rec *recorder) (instance, error) {
	in := &ingestInstance{cfg: cfg, rec: rec, logPath: filepath.Join(cfg.OutDir, "ingest-queries.wal")}
	mix, err := recordMix()
	if err != nil {
		return nil, err
	}
	sink, err := dnsserver.NewWALSink(in.logPath, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return nil, err
	}

	// One MTA after another walks the 39 policies, each query a few
	// hundred microseconds after the last: the shape a campaign's log
	// has, generated from the seed instead of probed. Which MTAs leave
	// entries is the repository's own model of the paper's population
	// (mtasim.PaperRates): one that does not validate SPF leaves none, a
	// partial validator (§6.1) fetches each policy's base record and
	// stops, the rest send the whole recorded sequence.
	want := int64(cfg.scaled(ingestEntriesPerSecond, 200))
	rng := rand.New(rand.NewSource(cfg.Seed))
	rates := mtasim.PaperRates()
	now := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	var appendWall time.Duration
	for in.entries < want {
		in.mtas++
		profile := rates.Sample(rng)
		if !profile.ValidatesSPF {
			continue
		}
		in.validators++
		if profile.PartialSPF {
			in.partial++
		}
		label := fmt.Sprintf("m%06d", in.mtas)
		remote := fmt.Sprintf("127.0.0.1:%d", 20000+rng.Intn(40000))
		for _, p := range mix {
			queries := p.Queries
			if profile.PartialSPF {
				queries = queries[:1]
			}
			for _, q := range queries {
				now = now.Add(time.Duration(100+rng.Intn(400)) * time.Microsecond)
				e := dnsserver.LogEntry{
					Time: now, Name: q.name(label), Type: q.Type,
					TestID: p.Test, MTAID: label, Rest: q.Rest,
					Transport: "udp", Remote: remote,
				}
				t0 := time.Now()
				sink.Append(e)
				if q.TCP {
					e.Transport = "tcp"
					sink.Append(e)
					in.entries++
				}
				appendWall += time.Since(t0)
				in.entries++
			}
		}
	}
	t0 := time.Now()
	if err := sink.Close(); err != nil {
		return nil, err
	}
	in.appendWall = appendWall + time.Since(t0)

	// The warm-up pass.
	if _, err := in.pass(0); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *ingestInstance) close() {}

// passResult is what one pass over the log measured and produced.
type passResult struct {
	decode, analyze time.Duration
	analyses        [4]time.Duration
	entries, bytes  int64
	digest          [sha256.Size]byte
}

// countingReader counts the payload bytes the decoder pulls.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// pass is one run of the cmd/analyze path. On a traced run it records
// a span per stage under one root span per pass (id > 0).
func (in *ingestInstance) pass(id int64) (passResult, error) {
	var pr passResult
	rec := in.rec
	if id == 0 {
		rec = nil // the warm-up pass is set-up, not part of the trace
	}
	root := opCtx{trace: id}
	self, start := rec.begin(root)
	defer func() { rec.end(spanIngestPass, root, self, start) }()
	stage := func(name spanName, fn func()) time.Duration {
		t0 := time.Now()
		s, st := rec.begin(self)
		fn()
		rec.end(name, self, s, st)
		return time.Since(t0)
	}

	f, err := dnsserver.OpenLogStream(in.logPath)
	if err != nil {
		return pr, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	entries := in.retained[:0]
	pr.decode = stage(spanDnsserverDecodePar, func() {
		err = dnsserver.ParForEachLogJSONOrdered(cr, in.cfg.Clients, func(e dnsserver.LogEntry) error {
			pr.entries++
			if e.MTAID != "" {
				entries = append(entries, e)
			}
			return nil
		})
	})
	if err != nil {
		return pr, err
	}
	in.retained = entries
	if st := f.Stats(); st.Truncated {
		return pr, fmt.Errorf("log has a torn tail: %d bytes dropped after %d records", st.DroppedBytes, st.Records)
	}
	pr.bytes = cr.n

	var out struct {
		SP       experiment.SerialParallelResult
		LL       experiment.LookupLimitResult
		B        *experiment.BehaviorResults
		Clusters []fingerprint.Cluster
	}
	pr.analyses[0] = stage(spanExperimentAnalyzeSerialparallel, func() { out.SP = experiment.AnalyzeSerialParallelEntries(entries) })
	pr.analyses[1] = stage(spanExperimentAnalyzeLookuplimits, func() { out.LL = experiment.AnalyzeLookupLimitsEntries(entries) })
	pr.analyses[2] = stage(spanExperimentAnalyzeBehaviors, func() { out.B = experiment.AnalyzeBehaviorsEntries(entries) })
	pr.analyses[3] = stage(spanFingerprintAnalyze, func() { out.Clusters, _ = experiment.AnalyzeFingerprintEntries(entries) })
	for _, d := range pr.analyses {
		pr.analyze += d
	}
	b, err := json.Marshal(out)
	if err != nil {
		return pr, err
	}
	pr.digest = sha256.Sum256(b)
	return pr, nil
}

func (in *ingestInstance) run(res *result) error {
	res.Sizes["entries"] = in.entries
	res.Sizes["mtas"] = in.mtas
	res.Sizes["spf_validators"] = in.validators
	res.Sizes["partial_validators"] = in.partial
	res.Sizes["passes"] = ingestPasses
	res.Attempted = in.entries * ingestPasses

	var rates, cpus, decodes, analyzes []float64
	var perAnalysis [4][]float64
	var first passResult
	for p := 1; p <= ingestPasses; p++ {
		runtime.GC()
		win := startWindow()
		pr, err := in.pass(int64(p))
		wall, cpu := win.stop()
		if err != nil {
			return err
		}
		rates = append(rates, float64(in.entries)/wall.Seconds())
		cpus = append(cpus, float64(cpu.Microseconds())/float64(in.entries))
		decodes = append(decodes, pr.decode.Seconds())
		analyzes = append(analyzes, pr.analyze.Seconds())
		for i, d := range pr.analyses {
			perAnalysis[i] = append(perAnalysis[i], d.Seconds())
		}

		// Output checks, per pass.
		if pr.entries != in.entries {
			res.failCheck("pass %d ingested %d entries, the log was written with %d", p, pr.entries, in.entries)
			res.Failed += max(in.entries-pr.entries, pr.entries-in.entries)
		}
		if p == 1 {
			first = pr
		} else if pr.digest != first.digest {
			res.failCheck("pass %d: analysis digest %x differs from pass 1's %x", p, pr.digest[:6], first.digest[:6])
		}
	}
	res.set("ops_per_s", median(rates))
	res.set("cpu_us_per_op", median(cpus))
	res.set("ingest_mb_per_s", float64(first.bytes)/1e6/median(decodes))
	res.set("analyze_s", median(analyzes))

	if in.rec != nil {
		if err := in.layers(res, first.bytes); err != nil {
			return err
		}
		res.set("dnsserver.decode_par_s", median(decodes))
		res.set("experiment.analyze_serialparallel_s", median(perAnalysis[0]))
		res.set("experiment.analyze_lookuplimits_s", median(perAnalysis[1]))
		res.set("experiment.analyze_behaviors_s", median(perAnalysis[2]))
		res.set("fingerprint.analyze_s", median(perAnalysis[3]))
		res.set("dnsserver.par_speedup", res.Metrics["dnsserver.decode_serial_s"].Value/median(decodes))
		res.set("dnsserver.walsink_append_s", in.appendWall.Seconds())
		res.set("dnsserver.walsink_entries_per_s", float64(in.entries)/in.appendWall.Seconds())
		res.Notes = append(res.Notes, "log-ingest layer times are medians per pass, like its end-to-end metrics")
	}
	return nil
}

// layers times what the analyze path never does on its own: replaying
// the WAL without decoding (deframe + CRC only), and decoding serially.
func (in *ingestInstance) layers(res *result, logBytes int64) error {
	timed := func(name spanName, fn func(io.Reader) error) (float64, error) {
		var walls []float64
		for i := 0; i < layerPasses; i++ {
			f, err := dnsserver.OpenLogStream(in.logPath)
			if err != nil {
				return 0, err
			}
			self, start := in.rec.begin(opCtx{})
			err = fn(f)
			walls = append(walls, in.rec.end(name, opCtx{}, self, start).Seconds())
			f.Close()
			if err != nil {
				return 0, err
			}
		}
		return median(walls), nil
	}
	replay, err := timed(spanWalReplay, func(r io.Reader) error {
		_, err := io.Copy(io.Discard, r)
		return err
	})
	if err != nil {
		return err
	}
	serial, err := timed(spanDnsserverDecodeSerial, func(r io.Reader) error {
		n := int64(0)
		err := dnsserver.ForEachLogJSON(r, func(dnsserver.LogEntry) error { n++; return nil })
		if err == nil && n != in.entries {
			err = fmt.Errorf("serial decode saw %d entries, want %d", n, in.entries)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("wal.replay_s", replay)
	res.set("wal.replay_mb_per_s", float64(logBytes)/1e6/replay)
	res.set("dnsserver.decode_serial_s", serial)
	return nil
}
