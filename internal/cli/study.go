package cli

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"runtime"

	"sendervalid/internal/wal"
)

// Study holds the flags cmd/campaign and cmd/experiment share: which
// simulated world to build, how hard to drive it, where the probe
// sweeps' durable record and the admin plane live, and the tracing
// flags.
type Study struct {
	Domains     int
	Seed        int64
	Workers     int
	TimeScale   float64
	Journal     string
	JournalSync string
	Resume      bool
	MetricsAddr string
	Trace
}

// Register binds the study flags, tracing flags included, on fs.
func (s *Study) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Domains, "domains", 2000, "domains per population")
	fs.Int64Var(&s.Seed, "seed", 1, "generation seed (must match across -resume)")
	fs.IntVar(&s.Workers, "workers", 2*runtime.NumCPU(), "global probe/delivery concurrency cap")
	fs.Float64Var(&s.TimeScale, "timescale", 0.001, "protocol delay multiplier (1.0 = paper timing)")
	fs.StringVar(&s.Journal, "journal", "", "append-only journal of probe outcomes (checksummed WAL; an unframed file at the path is refused); experiment takes it as the prefix of PREFIX.notifymx.jsonl and PREFIX.twoweekmx.jsonl")
	fs.StringVar(&s.JournalSync, "journal-sync", "none", `journal fsync policy: "none" (kernel-buffered), "interval" (group commit), "always" (fsync per event)`)
	fs.BoolVar(&s.Resume, "resume", false, "replay the journal and re-run only unfinished (MTA, test) pairs (requires -journal)")
	fs.StringVar(&s.MetricsAddr, "metrics-addr", "", "admin HTTP listen address for /metrics, /healthz, /statusz, /debug/pprof; empty disables")
	s.Trace.Register(fs)
}

// Check rejects the flag values a study cannot run with — -domains or
// -workers below 1, a -timescale that is not a positive finite number,
// -resume without -journal, an unknown -journal-sync — as Usage
// errors, and returns the parsed -journal-sync policy.
func (s *Study) Check() (wal.SyncPolicy, error) {
	if s.Domains < 1 {
		return 0, Usage(fmt.Errorf("-domains must be at least 1, got %d", s.Domains))
	}
	if s.Workers < 1 {
		return 0, Usage(fmt.Errorf("-workers must be at least 1, got %d", s.Workers))
	}
	if !(s.TimeScale > 0) || math.IsInf(s.TimeScale, 1) {
		return 0, Usage(fmt.Errorf("-timescale must be a positive finite number, got %v", s.TimeScale))
	}
	if s.Resume && s.Journal == "" {
		return 0, Usage(errors.New("-resume requires -journal"))
	}
	policy, err := wal.ParseSyncPolicy(s.JournalSync)
	if err != nil {
		return 0, Usage(err)
	}
	return policy, nil
}
