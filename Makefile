# Development entry points. `make check` is the gate: `fmt` (gofmt),
# `vet` (again with GOEXPERIMENT=synctest over the two packages whose
# bubble tests that tag hides from a plain vet), `build`, `no-stale-refs` (a stale-reference lint), `test` (the
# full test suite under the race detector: fuzz seed corpora and the
# seeded crash/bulk/trace suites included, at the default seed),
# `telemetry-alloc` (the allocation pins, which need a run without the
# race detector), `synctest` (the study at paper timing in a
# testing/synctest bubble against its golden report, at three
# apparatus settings) and `bench-smoke` (a one-iteration smoke pass
# over every benchmark).
# Every target is named here; internal/lint checks it.
# `make fuzz-seeds`, `crash`, `bulk-race` (the bulk SPF, SPF and
# resolver packages, three times over), `trace-race` and `chaos` run
# their suite on its own, to reproduce a failure at another CHAOS_SEED;
# `make bench-e2e` / `bench-e2e-compare` are the one performance gate.

GO ?= go

# Seed for the chaos suite. Every chaos test logs the seed it ran
# with; reproduce a failure with `make chaos CHAOS_SEED=<seed>`.
CHAOS_SEED ?= 42

.PHONY: check fmt vet build test fuzz-seeds no-stale-refs chaos crash telemetry-alloc synctest bulk-race trace-race bench-smoke bench-e2e bench-e2e-compare

check: fmt vet build no-stale-refs test telemetry-alloc synctest bench-smoke

# Fails, listing the files, when anything is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed (run gofmt -w):"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	GOEXPERIMENT=synctest $(GO) vet ./internal/dns/ ./internal/experiment/

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Replay the checked-in fuzz seed corpora (no exploration; that's
# `go test -fuzz=<target>` run by hand).
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./...

# The moving-baseline micro-harness is deleted (DESIGN §5c); its names
# may survive only in the history files. The pattern is bracketed so
# this rule does not match itself. git grep exits 1 on no match.
no-stale-refs:
	@git grep -nE 'bench[j]son|bench-[d]iff|BENCH[_](OUT|BASELINE|[0-9]+)' -- . \
		':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!bench/README.md'; \
	[ $$? -eq 1 ] || { echo "stale reference to the deleted micro-harness"; exit 1; }

# The chaos suite: seeded fault injection through netsim plus the
# serving-path robustness tests (shutdown, shaped-delay head-of-line
# and the slow-peer tables included), all under the race detector. The
# serving-path run builds with GOEXPERIMENT=synctest, so internal/dns's
# bubble tests (a TCP peer that never reads, never sends or trickles)
# run in it on virtual time.
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'TestChaos|TestPipeConn|TestPacketConn' -v ./internal/netsim/
	GOEXPERIMENT=synctest $(GO) test -race -count=1 \
		-run 'Panic|RateLimit|TCPServer|Retry|AsyncLog|Evict|Shed|LineTooLong|PolicyRejections|Shutdown|HeadOfLine|SlowPeer' \
		./internal/dns/ ./internal/dnsserver/ ./internal/smtp/ ./internal/resolver/

# The crash-recovery suite: the byte-level kill/recover sweeps over
# internal/wal (every byte offset of a recorded schedule, appended one
# record or one seeded batch at a time, bit flips, randomized kill
# cycles), the query log torn inside a batch (AsyncLog over a WALSink
# whose file stops at a byte offset, internal/dnsserver) and the
# process-level proof that SIGKILLing a real `campaign` run under
# chaos converges through -resume. Seeded like `make chaos`; reproduce
# with `make crash CHAOS_SEED=<seed>`.
crash:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'TestCrash|TestRandomizedKillAndReopen|FuzzWALRecover' ./internal/wal/ ./internal/dnsserver/
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -count=1 -timeout 300s \
		-run 'TestKillResumeConvergence' ./cmd/campaign/

# The instrument allocation pins: metric increments are on the DNS
# serving hot path, so Counter.Inc / Histogram.Observe / the
# per-policy count must stay at zero allocations (alongside the UDP
# endpoint's per-query budget, the query-log codec, per-chunk ingest
# pipeline and journal encoder pins, the tracer's span-lifecycle pins,
# the shared jsonwire cursor pin, the resolver cache-hit, warm-lookup
# and warm-CheckHost pins, the SPF record parse pin, the WAL replay
# pin, the query-log fold pin and the bulk SPF per-tuple pin that share
# the naming convention), and the connection-lifecycle pins: what one
# SMTP probe dialogue allocates (internal/smtp), what one resolver miss
# over the fabric allocates (internal/resolver), that re-arming a
# netsim deadline reuses its timer and that closed connections retain
# nothing (internal/netsim), and what building a world allocates per
# MTA, which one reseeded generator for the fleet keeps free of a
# math/rand source per MTA (internal/experiment).
telemetry-alloc:
	$(GO) test -run 'Alloc|RetainNothing|ReusesTimer' -count=1 \
		./internal/telemetry/ ./internal/dns/ ./internal/dnsserver/ ./internal/resolver/ \
		./internal/spf/ ./internal/trace/ ./internal/campaign/ ./internal/jsonwire/ ./internal/wal/ \
		./internal/fingerprint/ ./internal/netsim/ ./internal/smtp/ ./internal/bulkspf/ \
		./internal/experiment/

# The tests that run in a testing/synctest bubble, on virtual time:
# the whole study at paper timing (TimeScale 1.0), whose stdout
# TestStudyBubble holds byte for byte to
# internal/experiment/testdata/report-4000.golden, and again at
# -workers 1 and 24 and under SMTP faults, each of which must print
# that report outside its "completed in" line; and, in internal/dns,
# Shutdown against a TCP client that never reads its answers, which
# waits out the server's write deadline, and the TCP clients that never
# send or trickle a query, which wait out its idle deadline. They finish only while
# nothing in them waits on a host socket. They live in `//go:build
# goexperiment.synctest` files; tier-1 `go test ./...` runs
# TestStudyBubble alone, as a subprocess (TestStudyBubbleGolden).
# After a deliberate change of a result, rerun TestStudyBubble with
# `-args -update` to rewrite the golden file, and show its diff. Go 1.25
# replaces synctest.Run with synctest.Test(t, f) and drops the
# GOEXPERIMENT flag.
synctest:
	GOEXPERIMENT=synctest $(GO) test -count=1 -run 'Bubble' ./internal/dns/ ./internal/experiment/

# The bulk-SPF pipeline under the race detector, three times over:
# the seeded netsim faults (every input line must come back out exactly
# once while the resolver retries through packet loss and refused
# dials) and the order, trickle, cancellation and write-error tests
# that cross the reader/worker/writer segment hand-offs, and the SPF
# evaluator, whose prefetch goroutines arm check_host()'s budget
# concurrently (TestCheckHostBudget), and the resolver, whose one
# table the pipeline's workers all lean on: a miss looks its key up
# again and joins or leads its flight under one lock, so N workers on
# one cold name cost one query (TestSingleflightOneQueryPerKey).
# Reproduce a failure with `make bulk-race CHAOS_SEED=<seed>`.
bulk-race:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=3 ./internal/bulkspf/ ./internal/spf/ ./internal/resolver/

# The tracing subsystem under the race detector: the full span
# lifecycle (pooling, exporter handoff, Close drain) and a seeded-chaos
# bulk run at sample=1.0 with a leak-checked exporter, its resolver
# spans included. Reproduce with `make trace-race CHAOS_SEED=<seed>`.
trace-race:
	$(GO) test -race -count=1 ./internal/trace/
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 \
		-run 'TestBulkPipelineChaosTraced' ./internal/bulkspf/

# One iteration of every benchmark: catches bit-rot in benchmark code
# without the cost of a measurement run.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md):
# four closed-loop workloads, each run untraced for the end-to-end
# metrics and traced for the per-layer ones. For -repeat/-out/-workload
# and friends call `go run ./bench` directly.
bench-e2e:
	$(GO) run ./bench

# Verdict per workload and metric between two stored runs; exits
# non-zero on a regression: `make bench-e2e-compare A=A.json B=B.json`.
bench-e2e-compare:
	$(GO) run ./bench -compare $(A) $(B)
