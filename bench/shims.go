package main

import (
	"context"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/spf"
)

// The shims in this file wrap only injection points the modules already
// export (smtp.Dialer, dns.Dialer, spf.Resolver, dnsserver.Sink,
// dnsserver.Responder, the campaign journal io.Writer). They are
// installed on traced runs only.

// dialer is the shape smtp.Dialer and dns.Dialer share.
type dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// smtpDialer records the probe client's side of an SMTP session: the
// dial, each write, and the time blocked in Read waiting for the MTA —
// which is the whole receiving side (smtp server, mtasim, spf,
// resolver, dns, dnsserver) seen from outside.
type smtpDialer struct {
	inner      dialer
	rec        *recorder
	roundTrips atomic.Int64
}

func (d *smtpDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	op := opFrom(ctx)
	self, start := d.rec.begin(op)
	conn, err := d.inner.DialContext(ctx, network, address)
	d.rec.end(spanSmtpDial, op, self, start)
	if err != nil {
		return nil, err
	}
	// The greeting is the first reply awaited.
	return &smtpConn{Conn: conn, d: d, op: op, awaiting: true}, nil
}

// smtpConn is used by one goroutine at a time, like the smtp.Client
// that owns it.
type smtpConn struct {
	net.Conn
	d        *smtpDialer
	op       opCtx
	awaiting bool // a command (or the connect) is waiting for its reply
}

func (c *smtpConn) Read(p []byte) (int, error) {
	self, start := c.d.rec.begin(c.op)
	n, err := c.Conn.Read(p)
	c.d.rec.end(spanSmtpReplyWait, c.op, self, start)
	if c.awaiting {
		c.awaiting = false
		c.d.roundTrips.Add(1)
	}
	return n, err
}

func (c *smtpConn) Write(p []byte) (int, error) {
	self, start := c.d.rec.begin(c.op)
	n, err := c.Conn.Write(p)
	c.d.rec.end(spanSmtpWrite, c.op, self, start)
	c.awaiting = true
	return n, err
}

// journalShim times and counts the campaign's journal writes.
type journalShim struct {
	inner  io.Writer
	rec    *recorder
	events atomic.Int64
	bytes  atomic.Int64
}

func (j *journalShim) Write(p []byte) (int, error) {
	self, start := j.rec.begin(opCtx{})
	n, err := j.inner.Write(p)
	j.rec.end(spanCampaignJournalWrite, opCtx{}, self, start)
	j.events.Add(1)
	j.bytes.Add(int64(n))
	return n, err
}

// wireDialer measures DNS exchanges on the wire from the client's
// side: one span per connection, from its first write to the end of
// its last read.
type wireDialer struct {
	inner dialer
	rec   *recorder
	name  spanName
	// serving, when set, publishes the wire span under the op's key
	// while the exchange is in flight, so the server-side shims of the
	// same process can parent their spans to it.
	serving *inflight
	count   atomic.Int64
	tcp     atomic.Int64
	waitNs  atomic.Int64
	// spans is off while only the counters are wanted.
	spans atomic.Bool
}

func (d *wireDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	conn, err := d.inner.DialContext(ctx, network, address)
	if err != nil {
		return nil, err
	}
	d.count.Add(1)
	if network == "tcp" {
		d.tcp.Add(1)
	}
	return &wireConn{Conn: conn, d: d, op: opFrom(ctx), network: network}, nil
}

type wireConn struct {
	net.Conn
	d        *wireDialer
	op       opCtx
	network  string
	self     opCtx
	start    int64
	lastRead int64
	open     bool
}

// key is the op's key on this connection's transport.
func (c *wireConn) key() wireKey {
	k := c.op.key
	k.tcp = c.network == "tcp"
	return k
}

func (c *wireConn) Write(p []byte) (int, error) {
	if !c.open {
		c.open = true
		c.self, c.start = c.d.rec.begin(c.op)
		if c.d.serving != nil {
			c.d.serving.put(c.key(), c.self)
		}
	}
	return c.Conn.Write(p)
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.lastRead = c.d.rec.now()
	return n, err
}

func (c *wireConn) Close() error {
	if c.open {
		c.open = false
		end := max(c.lastRead, c.start)
		c.d.waitNs.Add(end - c.start)
		if c.d.spans.Load() {
			c.d.rec.record(c.d.name, c.op, c.self, c.start, end)
		}
		if c.d.serving != nil {
			c.d.serving.take(c.key())
		}
	}
	return c.Conn.Close()
}

// wireKey identifies an exchange by what both ends of it see: the
// canonical query name, the type and the transport. It is unique while
// the exchange is in flight because every replay carries a fresh label.
type wireKey struct {
	name string
	typ  dns.Type
	tcp  bool
	// log marks the entry the log hand-off leaves for the drain.
	log bool
}

// inflight maps an exchange's key to the span serving it. It is how
// spans on the server side of the loopback find their parent on the
// client side.
type inflight struct {
	mu sync.Mutex
	m  map[wireKey]opCtx
}

func newInflight() *inflight { return &inflight{m: map[wireKey]opCtx{}} }

func (f *inflight) put(key wireKey, op opCtx) {
	f.mu.Lock()
	f.m[key] = op
	f.mu.Unlock()
}

func (f *inflight) get(key wireKey) opCtx {
	f.mu.Lock()
	op := f.m[key]
	f.mu.Unlock()
	return op
}

// take is get and delete in one step.
func (f *inflight) take(key wireKey) opCtx {
	f.mu.Lock()
	op := f.m[key]
	delete(f.m, key)
	f.mu.Unlock()
	return op
}

// respondShim times a zone's Responder.
type respondShim struct {
	inner   dnsserver.Responder
	rec     *recorder
	serving *inflight
}

func (r respondShim) Respond(q *dnsserver.Query) dnsserver.Response {
	parent := r.serving.get(wireKey{name: q.Name, typ: q.Type, tcp: q.Transport == "tcp"})
	self, start := r.rec.begin(parent)
	resp := r.inner.Respond(q)
	r.rec.end(spanPolicyRespond, parent, self, start)
	return resp
}

// sinkShim times a query-log Sink. Two are stacked around AsyncLog:
// the outer one sees the serving goroutine's hand-off, the inner one
// the drain goroutine's encode + WAL append.
type sinkShim struct {
	inner   dnsserver.Sink
	rec     *recorder
	serving *inflight
	name    spanName
	// handoff marks the outer shim: it parents to the wire span and
	// leaves its own span for the inner shim to parent to.
	handoff bool
}

func (s *sinkShim) Append(e dnsserver.LogEntry) {
	key := wireKey{name: e.Name, typ: e.Type, tcp: e.Transport == "tcp"}
	logKey := key
	logKey.log = true
	var parent opCtx
	if s.handoff {
		parent = s.serving.get(key)
	} else {
		parent = s.serving.take(logKey)
	}
	self, start := s.rec.begin(parent)
	if s.handoff {
		s.serving.put(logKey, self)
	}
	s.inner.Append(e)
	s.rec.end(s.name, parent, self, start)
}

// resolverShim sits between the SPF evaluator and the resolver. It
// always counts lookups and the time spent waiting for them; while
// spans is on it also records a span per lookup.
type resolverShim struct {
	inner  spf.Resolver
	rec    *recorder
	spans  atomic.Bool
	calls  atomic.Int64
	waitNs atomic.Int64
}

func (r *resolverShim) begin(ctx context.Context) (parent, self opCtx, start int64) {
	parent = opFrom(ctx)
	self, start = r.rec.begin(parent)
	return parent, self, start
}

func (r *resolverShim) end(parent, self opCtx, start int64) {
	end := r.rec.now()
	r.calls.Add(1)
	r.waitNs.Add(end - start)
	if r.spans.Load() {
		r.rec.record(spanResolverLookup, parent, self, start, end)
	}
}

func (r *resolverShim) LookupTXT(ctx context.Context, name string) ([]string, error) {
	p, s, t := r.begin(ctx)
	defer r.end(p, s, t)
	return r.inner.LookupTXT(ctx, name)
}

func (r *resolverShim) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	p, s, t := r.begin(ctx)
	defer r.end(p, s, t)
	return r.inner.LookupA(ctx, name)
}

func (r *resolverShim) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	p, s, t := r.begin(ctx)
	defer r.end(p, s, t)
	return r.inner.LookupAAAA(ctx, name)
}

func (r *resolverShim) LookupMX(ctx context.Context, name string) ([]spf.MXRecord, error) {
	p, s, t := r.begin(ctx)
	defer r.end(p, s, t)
	return r.inner.LookupMX(ctx, name)
}

func (r *resolverShim) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	p, s, t := r.begin(ctx)
	defer r.end(p, s, t)
	return r.inner.LookupPTR(ctx, ip)
}

// netDialer is the real-socket dialer the wire shims wrap.
var netDialer net.Dialer
