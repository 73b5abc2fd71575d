package dnsserver

import (
	"sync"
	"sync/atomic"

	"sendervalid/internal/telemetry"
)

// AsyncLog decouples query logging from query serving. Append never
// blocks: entries go into a bounded buffer drained by a background
// goroutine into the wrapped sink, and when the buffer is full —
// logging backpressure, a stalled disk — the entry is counted as
// dropped instead of stalling the serving path. A week-long sweep
// would rather lose log lines than stop answering; the Dropped counter
// makes every lost line accountable in the analysis.
type AsyncLog struct {
	sink Sink
	ch   chan LogEntry

	appended telemetry.Counter
	dropped  telemetry.Counter

	closed atomic.Bool
	once   sync.Once
	stop   chan struct{}
	done   chan struct{}
}

// NewAsyncLog wraps sink with a non-blocking bounded buffer of the
// given depth (<= 0 means 4096) and starts the drain goroutine. Close
// must be called to flush and stop it.
func NewAsyncLog(sink Sink, buffer int) *AsyncLog {
	if buffer <= 0 {
		buffer = 4096
	}
	a := &AsyncLog{
		sink: sink,
		ch:   make(chan LogEntry, buffer),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.drain()
	return a
}

// drain delivers buffered entries to the sink. Whenever the buffer
// runs empty it flushes the sink, so a sink that batches (WALSink)
// holds nothing back while the log is idle. On Close it delivers
// whatever the buffer still holds, flushes the sink once more, and
// exits. The entry channel is never closed, so an Append racing Close
// can never panic — it just finds the log closed (or its entry is
// delivered, if it won the race).
func (a *AsyncLog) drain() {
	defer close(a.done)
	for {
		select {
		case e := <-a.ch:
			a.sink.Append(e)
			continue
		default:
		}
		flush(a.sink)
		select {
		case e := <-a.ch:
			a.sink.Append(e)
		case <-a.stop:
			for {
				select {
				case e := <-a.ch:
					a.sink.Append(e)
				default:
					flush(a.sink)
					return
				}
			}
		}
	}
}

// Append implements Sink without ever blocking. Entries that do not
// fit in the buffer — and entries arriving after Close — are dropped
// and counted.
func (a *AsyncLog) Append(e LogEntry) {
	a.appended.Inc()
	if a.closed.Load() {
		a.dropped.Inc()
		return
	}
	select {
	case a.ch <- e:
	default:
		a.dropped.Inc()
	}
}

// Appended returns the number of entries offered to the log (delivered
// plus dropped).
func (a *AsyncLog) Appended() uint64 { return a.appended.Value() }

// Dropped returns the number of entries lost to a full buffer or to
// arriving after Close.
func (a *AsyncLog) Dropped() uint64 { return a.dropped.Value() }

// Close stops accepting entries, flushes the buffer into the sink, and
// waits for the drain goroutine. It is idempotent and safe to call
// while appenders are still running: late entries are dropped and
// counted rather than panicking, so the server and its log no longer
// have to shut down in lockstep.
func (a *AsyncLog) Close() {
	a.once.Do(func() {
		a.closed.Store(true)
		close(a.stop)
	})
	<-a.done
	// An appender that passed the closed check just before Close wins
	// the race into the channel after the final flush; account for
	// those entries as dropped rather than losing them silently.
	for {
		select {
		case <-a.ch:
			a.dropped.Inc()
		default:
			return
		}
	}
}

// RegisterMetrics publishes the log's delivery counters and buffer
// occupancy under the dnsserver_log_ namespace.
func (a *AsyncLog) RegisterMetrics(reg *telemetry.Registry) {
	reg.MustCounter("dnsserver_log_appended_total",
		"Query-log entries offered to the async log (delivered plus dropped).",
		&a.appended)
	reg.MustCounter("dnsserver_log_dropped_total",
		"Query-log entries lost to a full buffer or a closed log.",
		&a.dropped)
	reg.MustGaugeFunc("dnsserver_log_buffered",
		"Query-log entries waiting in the async buffer.",
		func() float64 { return float64(len(a.ch)) })
	reg.MustGaugeFunc("dnsserver_log_buffer_capacity",
		"Async query-log buffer depth.",
		func() float64 { return float64(cap(a.ch)) })
}
