// Package wal is a reusable, stdlib-only write-ahead log: checksummed
// record framing over an append-only file, a configurable sync policy,
// size-based rotation, and crash recovery that salvages the valid
// prefix of a torn file.
//
// The study's raw data — the authoritative server's query log and the
// campaign's progress journal — is append-only JSONL, written
// continuously over a multi-week measurement. A plain file gives that
// record no integrity story: a crash mid-write leaves a torn tail, a
// disk fault corrupts a line silently, and the reader cannot tell
// salvageable prefix from garbage. The WAL frames each record as
//
//	marker(1) | length(4, LE) | CRC32C(payload)(4, LE) | payload
//
// so Recover can walk the file from the front, verify every record,
// and truncate the first frame that fails — torn write, bit rot, or
// arbitrary bytes — leaving the file append-ready with a precise count
// of what was salvaged and what was dropped. The payload stays the
// caller's existing wire format (JSONL lines here), so analysis
// tooling keeps working on the framed stream through OpenStream.
//
// Durability is a policy, not a constant: SyncAlways fsyncs every
// record (the journal of a two-week campaign), SyncInterval group-
// commits on a background flusher (the high-rate query log), SyncNone
// leaves flushing to the kernel. In every mode AppendBatch hands its
// frames to the kernel whole and in order, one write per segment, so a
// SIGKILL — as opposed to a machine crash — loses at most the tail of
// the batch in flight (the record in flight, for Append).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"sendervalid/internal/telemetry"
)

// Frame layout constants. The marker byte is chosen to be invalid as
// the first byte of any JSONL record (and of UTF-8 text generally), so
// a framed log and a plain-text log can be told apart by their first
// byte — that is how OpenStream sniffs each segment's format.
const (
	// Marker opens every frame.
	Marker = 0xC3
	// headerSize is marker + length + checksum.
	headerSize = 1 + 4 + 4
	// MaxRecordBytes bounds a single record's payload: Append rejects
	// larger records, and a frame header claiming more is corruption.
	MaxRecordBytes = 16 << 20
)

// crcTable is the Castagnoli polynomial (CRC32C) — hardware-
// accelerated on amd64/arm64, and the checksum used by comparable
// journals (leveldb, etcd's WAL).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of payload, exposed for tests that
// construct frames by hand.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// SyncPolicy selects when appended records are fsynced to stable
// storage.
type SyncPolicy int

const (
	// SyncNone never fsyncs: records reach the kernel before Append
	// or AppendBatch returns (so process death loses nothing already
	// appended) but a machine crash can lose recently appended records.
	SyncNone SyncPolicy = iota
	// SyncInterval group-commits: a background flusher fsyncs the file
	// every syncPeriod while appends are dirty. A machine crash loses
	// at most one period of records.
	SyncInterval
	// SyncAlways fsyncs before Append or AppendBatch returns: once it
	// returns nil, its records survive machine failure. The per-call
	// fsync cost is measured by BenchmarkWALAppend.
	SyncAlways
)

// syncPeriod is SyncInterval's group-commit period.
const syncPeriod = 100 * time.Millisecond

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return "none"
	}
}

// ParseSyncPolicy parses the -*-sync flag spellings.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none", "":
		return SyncNone, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncNone, fmt.Errorf("wal: unknown sync policy %q (want none, interval, or always)", s)
}

// File is the write surface the WAL needs from its backing file.
// Options.WrapFile lets tests interpose fault injection here.
type File interface {
	io.Writer
	Sync() error
}

// Options configures Open.
type Options struct {
	// Sync is the durability policy; see SyncPolicy.
	Sync SyncPolicy
	// RotateBytes rotates the live file to <path>.<seq> via atomic
	// rename once appending a record would push it past this size.
	// Zero disables rotation. Records never span segments.
	RotateBytes int64
	// WrapFile, when non-nil, wraps every backing file the WAL opens
	// (the live segment and each post-rotation successor). It exists
	// for crash harnesses: a wrapper that fails, short-writes, or
	// stops writing at a scheduled byte offset simulates torn writes
	// without killing the process.
	WrapFile func(File) File
}

// ErrNotWAL is returned by Open for a non-empty file that does not
// begin with the frame marker: almost certainly a plain-text log that
// recovery would otherwise destroy by truncating to zero. Callers that
// really mean to repair such a file use Recover, which is documented
// as destructive.
var ErrNotWAL = errors.New("wal: file is not framed (no marker at offset 0)")

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// WAL is an append-only checksummed record log. All methods are safe
// for concurrent use. Write errors are sticky: after the first failed
// append or sync the WAL refuses further work and Err/Check report the
// failure, so a health check can flip /healthz instead of the process
// silently losing its durable record.
type WAL struct {
	path string
	opts Options

	mu    sync.Mutex
	f     *os.File // live segment (rotation and truncation need the real file)
	w     File     // write surface (f, possibly wrapped)
	size  int64    // live segment size
	seq   int      // next rotation suffix
	buf   []byte   // frame assembly buffer, reused across appends
	err   error    // sticky first failure
	dirty bool     // bytes appended since the last sync

	closed    bool
	flushStop chan struct{}
	flushDone chan struct{}

	recovered RecoverStats

	// Instruments are always-on (zero-value counters are usable);
	// RegisterMetrics publishes them.
	appends     telemetry.Counter
	appendBytes telemetry.Counter
	syncs       telemetry.Counter
	failures    telemetry.Counter
	rotations   telemetry.Counter
	syncSeconds *telemetry.Histogram
}

// Open opens (creating if absent) the WAL at path, recovering the live
// segment first: the valid record prefix is kept, a torn or corrupt
// tail is truncated away, and the recovery outcome is available via
// Recovered. A non-empty file that is not framed fails with ErrNotWAL
// rather than truncating someone else's data.
func Open(path string, opts Options) (*WAL, error) {
	stats, err := Recover(path, RecoverOptions{RefuseUnframed: true})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	w := &WAL{
		path:        path,
		opts:        opts,
		f:           f,
		size:        size,
		seq:         nextSeq(path),
		recovered:   stats,
		syncSeconds: telemetry.NewHistogram(telemetry.LatencyBuckets),
	}
	w.w = w.wrap(f)
	if opts.Sync == SyncInterval {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flusher()
	}
	return w, nil
}

func (w *WAL) wrap(f File) File {
	if w.opts.WrapFile != nil {
		return w.opts.WrapFile(f)
	}
	return f
}

// Recovered reports what Open's recovery pass found in the live
// segment: records salvaged, bytes kept, and bytes truncated away.
func (w *WAL) Recovered() RecoverStats { return w.recovered }

// Append frames one record and writes it to the live segment,
// honouring the sync policy: the one-record case of AppendBatch.
// Append retains no reference to p.
func (w *WAL) Append(p []byte) error { return w.AppendBatch(p) }

// Write implements io.Writer over Append — one record per call — so
// the WAL drops into io.Writer plumbing. Its callers, the campaign
// journal and the -trace-file span exporter, write exactly one logical
// record per call, so each reaches the kernel as it is written.
func (w *WAL) Write(p []byte) (int, error) {
	if err := w.Append(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// AppendBatch frames recs, in order, into the WAL's reused buffer and
// hands them to the kernel in one write per segment: where the next
// frame would push the live segment past RotateBytes, the frames
// before it are written and the segment rotates, so no record spans
// two segments and no segment outgrows RotateBytes unless a single
// frame does. Frames reach the file in order and whole, so a process
// kill can only cut the batch after some prefix of its records. Under
// SyncAlways it fsyncs once before returning. A record over
// MaxRecordBytes fails the batch before anything is written.
// AppendBatch retains no reference to recs.
func (w *WAL) AppendBatch(recs ...[]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		w.failures.Inc()
		return w.err
	}
	for _, p := range recs {
		if len(p) > MaxRecordBytes {
			// An oversized record is a caller bug, not a log failure:
			// the error is returned but not made sticky.
			w.failures.Inc()
			return fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(p), MaxRecordBytes)
		}
	}
	w.buf = w.buf[:0]
	framed := 0 // records framed into w.buf
	for _, p := range recs {
		pending := w.size + int64(len(w.buf))
		if w.opts.RotateBytes > 0 && pending > 0 && pending+int64(headerSize+len(p)) > w.opts.RotateBytes {
			if err := w.writeLocked(framed); err != nil {
				return err
			}
			if err := w.rotateLocked(); err != nil {
				return err
			}
			framed = 0
		}
		w.buf = appendFrame(w.buf, p)
		framed++
	}
	if err := w.writeLocked(framed); err != nil {
		return err
	}
	if w.opts.Sync == SyncAlways {
		return w.syncLocked()
	}
	return nil
}

// writeLocked hands the records framed in w.buf to the live segment in
// one write and empties w.buf.
func (w *WAL) writeLocked(records int) error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.w.Write(w.buf); err != nil {
		w.fail(fmt.Errorf("wal: appending to %s: %w", w.path, err))
		return w.err
	}
	w.size += int64(len(w.buf))
	w.dirty = true
	w.appends.Add(uint64(records))
	w.appendBytes.Add(uint64(len(w.buf)))
	w.buf = w.buf[:0]
	return nil
}

// appendFrame appends one framed record to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	hdr[0] = Marker
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], Checksum(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// rotateLocked finalizes the live segment and starts a fresh one: sync
// the old file (a finished segment is always fully durable), atomically
// rename it to <path>.<seq>, and create the successor at path. A crash
// between rename and create leaves no live file, which Open treats as
// an empty log after the rotated segments — no window loses records.
func (w *WAL) rotateLocked() error {
	start := time.Now()
	if err := w.w.Sync(); err != nil {
		w.fail(fmt.Errorf("wal: syncing %s before rotation: %w", w.path, err))
		return w.err
	}
	w.syncSeconds.Observe(time.Since(start).Seconds())
	w.syncs.Inc()
	if err := w.f.Close(); err != nil {
		w.fail(fmt.Errorf("wal: closing %s for rotation: %w", w.path, err))
		return w.err
	}
	if err := os.Rename(w.path, segmentName(w.path, w.seq)); err != nil {
		w.fail(fmt.Errorf("wal: rotating %s: %w", w.path, err))
		return w.err
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		w.fail(fmt.Errorf("wal: creating segment after rotation: %w", err))
		return w.err
	}
	w.seq++
	w.f = f
	w.w = w.wrap(f)
	w.size = 0
	w.dirty = false
	w.rotations.Inc()
	return nil
}

// Sync flushes appended records to stable storage, regardless of
// policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	start := time.Now()
	if err := w.w.Sync(); err != nil {
		w.fail(fmt.Errorf("wal: syncing %s: %w", w.path, err))
		return w.err
	}
	w.syncSeconds.Observe(time.Since(start).Seconds())
	w.syncs.Inc()
	w.dirty = false
	return nil
}

func (w *WAL) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.failures.Inc()
}

// flusher is the SyncInterval group-commit loop.
func (w *WAL) flusher() {
	defer close(w.flushDone)
	ticker := time.NewTicker(syncPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w.mu.Lock()
			if !w.closed && w.err == nil && w.dirty {
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		case <-w.flushStop:
			return
		}
	}
}

// Err returns the sticky failure, nil while the WAL is healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Check is a telemetry health check: it fails once the WAL has wedged
// (sticky write/sync failure), flipping /healthz so an operator learns
// the measurement's durable record has stopped growing.
func (w *WAL) Check() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return fmt.Errorf("wal wedged: %v", w.err)
	}
	return nil
}

// Close syncs and closes the live segment. Append after Close returns
// ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	var ferr error
	if w.err == nil && w.dirty {
		if err := w.w.Sync(); err == nil {
			w.syncs.Inc()
			w.dirty = false
		} else {
			ferr = fmt.Errorf("wal: syncing %s at close: %w", w.path, err)
			w.err = ferr
		}
	}
	cerr := w.f.Close()
	stop := w.flushStop
	done := w.flushDone
	w.mu.Unlock()

	if stop != nil {
		close(stop)
		<-done
	}
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		return fmt.Errorf("wal: closing %s: %w", w.path, cerr)
	}
	return nil
}

// Size returns the live segment's current size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// RegisterMetrics publishes the WAL's counters and sync-latency
// histogram under the wal_ namespace. Const labels distinguish
// multiple WALs in one process (e.g. name="journal" vs name="querylog").
func (w *WAL) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.MustCounter("wal_records_appended_total",
		"Records framed and handed to the kernel.",
		&w.appends, labels...)
	reg.MustCounter("wal_bytes_appended_total",
		"Framed bytes appended (header plus payload).",
		&w.appendBytes, labels...)
	reg.MustCounter("wal_syncs_total",
		"fsync calls issued (per-record, group-commit, rotation, and close).",
		&w.syncs, labels...)
	reg.MustCounter("wal_failures_total",
		"Appends or syncs that failed (the first failure wedges the log).",
		&w.failures, labels...)
	reg.MustCounter("wal_rotations_total",
		"Live-segment rotations.",
		&w.rotations, labels...)
	reg.MustHistogram("wal_sync_seconds",
		"Latency of fsync on the live segment.",
		w.syncSeconds, labels...)
	reg.MustGaugeFunc("wal_segment_bytes",
		"Current live-segment size.",
		func() float64 { return float64(w.Size()) }, labels...)
	reg.MustGaugeFunc("wal_recovered_records",
		"Records salvaged from the live segment when this WAL opened.",
		func() float64 { return float64(w.recovered.Records) }, labels...)
	reg.MustGaugeFunc("wal_recovered_dropped_bytes",
		"Torn/corrupt tail bytes truncated when this WAL opened.",
		func() float64 { return float64(w.recovered.DroppedBytes) }, labels...)
}
