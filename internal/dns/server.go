package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"sendervalid/internal/trace"
)

// Request carries a decoded query and its transport context to a
// Handler.
//
// A Request and its Msg belong to the goroutine that read the query
// and are reused for its next one: a handler must not retain either
// (or slices taken from the Msg) past ServeDNS. Strings extracted from
// them remain valid indefinitely.
type Request struct {
	// Msg is the decoded query.
	Msg *Message
	// RemoteAddr is the client's transport address. An IPv4 client of
	// a dual-stack socket appears as its IPv4 address, not v4-mapped.
	RemoteAddr netip.AddrPort
	// Transport is "udp" or "tcp".
	Transport string
	// Received is the server's arrival timestamp for the query.
	Received time.Time
	// Span is the query's root trace span when the Server has a
	// Tracer, nil otherwise. Handlers may annotate it (attribution
	// labels, outcome) but must not End it or retain it past ServeDNS:
	// the Server ends the span when the answer is sent.
	Span *trace.Span

	// remote caches RemoteAddr.String() once a handler has asked.
	remote string
}

// RemoteString returns RemoteAddr.String(), rendered on the first call
// for the request: a handler that never asks allocates nothing for it.
func (r *Request) RemoteString() string {
	if r.remote == "" && r.RemoteAddr.IsValid() {
		r.remote = r.RemoteAddr.String()
	}
	return r.remote
}

// ResponseWriter sends a response for one request.
type ResponseWriter interface {
	// WriteMsg packs and transmits the response. Over UDP the response
	// is truncated to the client's advertised payload size.
	WriteMsg(*Message) error
	// WriteMsgAfter is WriteMsg sent d later. The response is packed
	// now, so the handler may recycle m once it returns. Over UDP a
	// timer sends it and the reader goes on to the next query; over
	// TCP the connection's own goroutine waits. The query's span and
	// serve latency end when the response is sent.
	WriteMsgAfter(m *Message, d time.Duration) error
}

// Handler responds to DNS requests.
//
// ServeDNS runs on the goroutine that read the query. Over UDP that is
// one of the Server's GOMAXPROCS socket readers, which reads nothing
// else until ServeDNS returns: a handler that answers late must say so
// with WriteMsgAfter, never by sleeping.
type Handler interface {
	ServeDNS(w ResponseWriter, r *Request)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(w ResponseWriter, r *Request)

// ServeDNS calls f(w, r).
func (f HandlerFunc) ServeDNS(w ResponseWriter, r *Request) { f(w, r) }

// PacketConn is the datagram endpoint a Server reads queries from and
// answers on: a *net.UDPConn, or a simulated fabric's endpoint.
type PacketConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	// SetReadDeadline with a past time wakes every blocked reader:
	// Shutdown relies on it.
	SetReadDeadline(t time.Time) error
	LocalAddr() net.Addr
	Close() error
}

// Server serves DNS over both UDP and TCP on the same address.
//
// The serving path degrades instead of dying: handler panics are
// recovered into SERVFAIL responses, per-source rate limiting (when
// configured) answers floods with REFUSED, and the accept/read loops
// back off on transient errors (EMFILE-class descriptor exhaustion)
// instead of spinning or exiting.
type Server struct {
	// Addr is the address Start binds, e.g. "127.0.0.1:0".
	Addr string
	// Handler responds to queries. Required.
	Handler Handler
	// MaxQPSPerSource, when positive, rate-limits queries per client
	// IP with a token bucket; queries over budget receive REFUSED so
	// a well-behaved resolver backs off rather than timing out.
	MaxQPSPerSource float64
	// BurstPerSource is the per-source token-bucket depth. Zero means 8.
	BurstPerSource int
	// Logf, when set, receives diagnostics for recovered panics and
	// degraded-mode events. Nil discards them.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, opens one root span per served query
	// ("dns.serve"), exposed to the handler as Request.Span. Sampled
	// spans also become exemplars on the serve-latency histogram.
	Tracer *trace.Tracer

	mu       sync.Mutex
	udp      PacketConn
	ln       net.Listener
	started  bool
	shutdown chan struct{}
	wg       sync.WaitGroup

	limiter *RateLimiter

	metrics serverMetrics
	panics  Counter
	refused Counter
}

// ErrServerStarted is returned when a server is started twice.
var ErrServerStarted = errors.New("dns: server already started")

// Start binds UDP and TCP sockets on Addr (default "127.0.0.1:0") and
// serves them. It returns the bound address (useful with port 0).
func (s *Server) Start() (net.Addr, error) {
	addr := s.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	pc, ln, err := listen(addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(pc, ln); err != nil {
		pc.Close()
		ln.Close()
		return nil, err
	}
	return pc.LocalAddr(), nil
}

// listen binds a UDP socket and a TCP listener on the same address.
// With an ephemeral port the TCP side can race other processes, so it
// retries with a fresh UDP socket when the matching TCP port is taken.
func listen(addr string) (*net.UDPConn, net.Listener, error) {
	for attempt := 0; ; attempt++ {
		pc, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, nil, fmt.Errorf("dns: udp listen: %w", err)
		}
		ln, err := net.Listen("tcp", pc.LocalAddr().String())
		if err == nil {
			return pc.(*net.UDPConn), ln, nil
		}
		pc.Close()
		_, port, splitErr := net.SplitHostPort(addr)
		ephemeral := splitErr == nil && port == "0"
		if !ephemeral || attempt >= 16 {
			return nil, nil, fmt.Errorf("dns: tcp listen: %w", err)
		}
	}
}

// Serve answers queries on an endpoint the caller bound — host sockets
// or a simulated fabric's — in background goroutines:
// GOMAXPROCS(0) readers on pc and an accept loop on ln. Shutdown
// closes both.
func (s *Server) Serve(pc PacketConn, ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return ErrServerStarted
	}
	if s.Handler == nil {
		return errors.New("dns: server has no handler")
	}
	s.udp, s.ln = pc, ln
	s.shutdown = make(chan struct{})
	s.started = true
	s.metrics.init()
	if s.MaxQPSPerSource > 0 {
		s.limiter = NewRateLimiter(s.MaxQPSPerSource, s.BurstPerSource)
	}
	readers := runtime.GOMAXPROCS(0)
	s.wg.Add(readers + 1)
	for range readers {
		go s.serveUDP()
	}
	go s.serveTCP(ln)
	return nil
}

// LocalAddr returns the bound UDP address, or nil before Start.
func (s *Server) LocalAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.udp == nil {
		return nil
	}
	return s.udp.LocalAddr()
}

// Shutdown stops accepting queries, waits for in-flight handlers and
// delayed answers (or ctx), then closes the UDP socket. The socket
// stays open meanwhile so that a query already being answered still
// gets its answer.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	close(s.shutdown)
	_ = s.udp.SetReadDeadline(time.Now()) // wakes every reader, which exits on closing()
	s.ln.Close()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.udp.Close()
	return err
}

func (s *Server) closing() bool {
	select {
	case <-s.shutdown:
		return true
	default:
		return false
	}
}

// maxUDPQuery sizes the datagram buffers of the readers and the client.
const maxUDPQuery = 4096

// Panics returns the number of handler panics recovered into SERVFAIL
// responses since Start.
func (s *Server) Panics() uint64 { return s.panics.Value() }

// Refused returns the number of queries answered REFUSED by the
// per-source rate limiter since Start.
func (s *Server) Refused() uint64 { return s.refused.Value() }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// backoff sleeps for the current retry delay (interruptible by
// shutdown) and returns the next one: 5ms doubling to 1s, the
// accept-loop discipline net/http uses for EMFILE-class errors.
func (s *Server) backoff(delay time.Duration) time.Duration {
	if delay == 0 {
		delay = 5 * time.Millisecond
	} else if delay *= 2; delay > time.Second {
		delay = time.Second
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.shutdown:
	}
	return delay
}

// overLimit consults the per-source limiter, keyed by the client IP.
func (s *Server) overLimit(src netip.Addr, now time.Time) bool {
	if s.limiter == nil {
		return false
	}
	if s.limiter.Allow(src, now) {
		return false
	}
	s.refused.Inc()
	return true
}

// serveRequest dispatches one request to the handler, converting a
// panic into a SERVFAIL response so one malformed or adversarial query
// cannot take the server down mid-sweep.
func (s *Server) serveRequest(w ResponseWriter, r *Request) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Inc()
			s.logf("dns: handler panic serving %s from %s: %v", describeQuery(r.Msg), r.RemoteAddr, v)
			resp := GetMsg().SetReply(r.Msg)
			resp.RCode = RCodeServerFailure
			_ = w.WriteMsg(resp)
			PutMsg(resp)
		}
	}()
	s.Handler.ServeDNS(w, r)
}

// describeQuery renders the question for panic diagnostics without
// risking a second panic on a degenerate message.
func describeQuery(m *Message) string {
	if m == nil || len(m.Questions) == 0 {
		return "<no question>"
	}
	q := m.Questions[0]
	return fmt.Sprintf("%s %s", q.Name, q.Type)
}

// refuse writes a REFUSED reply for a rate-limited query.
func refuse(w ResponseWriter, msg *Message) {
	resp := GetMsg().SetReply(msg)
	resp.RCode = RCodeRefused
	_ = w.WriteMsg(resp)
	PutMsg(resp)
}

// serve answers one decoded query: REFUSED when its source is over
// the rate limit, otherwise the handler under a "dns.serve" span. It
// reports whether the handler ran; a refused query is finished here,
// a served one by the caller once its answer is sent.
func (s *Server) serve(w ResponseWriter, r *Request) bool {
	if s.overLimit(r.RemoteAddr.Addr(), r.Received) {
		refuse(w, r.Msg)
		s.metrics.observeServe(time.Since(r.Received).Seconds())
		return false
	}
	if r.Span = s.Tracer.StartSpan("dns.serve"); r.Span != nil {
		r.Span.SetAttr("transport", r.Transport)
		r.Span.SetAttr("client", r.RemoteString())
	}
	s.serveRequest(w, r)
	return true
}

// finish records a served query's latency, arrival to answer sent, and
// ends its span.
func (s *Server) finish(received time.Time, sp *trace.Span) {
	secs := time.Since(received).Seconds()
	s.metrics.observeServe(secs)
	if sp != nil {
		s.metrics.setServeExemplar(secs, sp.ExemplarID())
		sp.End()
	}
}

// unmap presents an IPv4 client of a dual-stack socket by its IPv4
// address, as net.UDPAddr.String() renders it.
func unmap(a netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

// serveUDP is one of the GOMAXPROCS(0) loops reading the UDP socket.
// It serves each query inline and owns everything that takes (read
// buffer, message, response writer with its encode buffer, Request),
// so the endpoint allocates nothing per query unless the handler asks
// for RemoteString. A delayed answer leaves on a timer, never by
// holding the reader (udpResponseWriter.finish).
func (s *Server) serveUDP() {
	defer s.wg.Done()
	buf := make([]byte, maxUDPQuery)
	msg := GetMsg()
	defer PutMsg(msg)
	w := &udpResponseWriter{s: s}
	r := new(Request)
	var delay time.Duration
	for {
		n, raddr, err := s.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			if s.closing() {
				return
			}
			// Transient socket errors (buffer pressure, ICMP-borne
			// errors): back off instead of spinning on the error.
			delay = s.backoff(delay)
			continue
		}
		delay = 0
		received := time.Now()
		if err := msg.Unpack(buf[:n]); err != nil || msg.Response {
			continue
		}
		s.metrics.queriesUDP.Inc()
		*r = Request{Msg: msg, RemoteAddr: unmap(raddr), Transport: "udp", Received: received}
		w.raddr, w.maxSize = r.RemoteAddr, msg.EDNSUDPSize()
		if s.serve(w, r) {
			w.finish(r)
		}
	}
}

func (s *Server) serveTCP(ln net.Listener) {
	defer s.wg.Done()
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing() {
				return
			}
			// EMFILE-class and other transient accept failures: back
			// off so the process sheds load instead of hot-looping.
			delay = s.backoff(delay)
			continue
		}
		delay = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleTCPConn(conn)
		}()
	}
}

// tcpIdleTimeout bounds how long a TCP connection may sit idle between
// queries.
const tcpIdleTimeout = 10 * time.Second

// remoteAddrPort reads a connection's remote address: directly from a
// *net.TCPAddr, by its string form from any other net.Addr (a
// simulated fabric's). It is the zero AddrPort when neither works.
func remoteAddrPort(a net.Addr) netip.AddrPort {
	if ta, ok := a.(*net.TCPAddr); ok {
		return unmap(ta.AddrPort())
	}
	ap, _ := netip.ParseAddrPort(a.String())
	return unmap(ap)
}

func (s *Server) handleTCPConn(conn net.Conn) {
	defer conn.Close()
	w := &tcpResponseWriter{conn: conn, metrics: &s.metrics}
	var pkt []byte // per-connection read buffer, grown on demand
	msg := GetMsg()
	defer PutMsg(msg)
	r := &Request{Msg: msg, Transport: "tcp", RemoteAddr: remoteAddrPort(conn.RemoteAddr())}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout))
		var err error
		pkt, err = readTCPMessageInto(conn, pkt)
		if err != nil {
			return
		}
		r.Received, r.Span = time.Now(), nil
		if err := msg.Unpack(pkt); err != nil || msg.Response {
			return
		}
		s.metrics.queriesTCP.Inc()
		if s.serve(w, r) {
			s.finish(r.Received, r.Span)
		}
		if s.closing() {
			return
		}
	}
}

// udpResponseWriter answers the query its reader is serving; the
// reader owns it and reuses it, encode buffer included, for every
// query it reads.
type udpResponseWriter struct {
	s       *Server
	raddr   netip.AddrPort
	maxSize int
	buf     []byte
	// later is the answer WriteMsgAfter packed, sent delay after the
	// handler returns; nil when the handler answered at once.
	later []byte
	delay time.Duration
}

func (w *udpResponseWriter) WriteMsg(m *Message) error {
	packed, err := w.pack(m, w.buf[:0])
	if err != nil {
		return err
	}
	w.buf = packed // keep any growth for the next response
	_, err = w.s.udp.WriteToUDPAddrPort(packed, w.raddr)
	return err
}

func (w *udpResponseWriter) WriteMsgAfter(m *Message, d time.Duration) error {
	if d <= 0 {
		return w.WriteMsg(m)
	}
	packed, err := w.pack(m, nil)
	if err != nil {
		return err
	}
	w.later, w.delay = packed, d
	return nil
}

// pack counts m's RCODE and appends its wire form to dst. A response
// over the client's advertised payload size is truncated: records
// stripped and TC set, so the client retries over TCP.
func (w *udpResponseWriter) pack(m *Message, dst []byte) ([]byte, error) {
	w.s.metrics.rcodes[m.RCode&0x0F].Inc()
	packed, err := m.AppendPack(dst)
	if err != nil || len(packed) <= w.maxSize {
		return packed, err
	}
	trunc := *m
	trunc.Truncated = true
	trunc.Answers, trunc.Authority, trunc.Additional = nil, nil, nil
	return trunc.AppendPack(packed[:0])
}

// finish ends the query the reader has just served. An answer the
// handler deferred with WriteMsgAfter is sent by a timer counted in
// s.wg, so the reader goes straight back to the socket and Shutdown
// still delivers it; the span and serve latency end with that send.
func (w *udpResponseWriter) finish(r *Request) {
	s, received, sp := w.s, r.Received, r.Span
	if w.later == nil {
		s.finish(received, sp)
		return
	}
	packed, raddr := w.later, w.raddr
	w.later = nil
	s.wg.Add(1)
	time.AfterFunc(w.delay, func() {
		defer s.wg.Done()
		_, _ = s.udp.WriteToUDPAddrPort(packed, raddr)
		s.finish(received, sp)
	})
}

// tcpResponseWriter answers on one connection, reusing one encode
// buffer for the connection's lifetime.
type tcpResponseWriter struct {
	conn    net.Conn
	metrics *serverMetrics
	buf     []byte
}

func (w *tcpResponseWriter) WriteMsg(m *Message) error {
	w.metrics.rcodes[m.RCode&0x0F].Inc()
	// Encode past a reserved two-octet length prefix (RFC 1035 §4.2.2)
	// so frame and message go out in one write with no extra copy.
	buf, err := m.AppendPack(append(w.buf[:0], 0, 0))
	if err != nil {
		return err
	}
	w.buf = buf
	n := len(buf) - 2
	if n > 0xFFFF {
		return ErrRDataTooLong
	}
	buf[0], buf[1] = byte(n>>8), byte(n)
	_, err = w.conn.Write(buf)
	return err
}

// WriteMsgAfter waits out d on the connection's own goroutine, which
// answers the connection's queries in order anyway.
func (w *tcpResponseWriter) WriteMsgAfter(m *Message, d time.Duration) error {
	time.Sleep(d)
	return w.WriteMsg(m)
}
