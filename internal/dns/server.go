package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"sendervalid/internal/trace"
)

// Request carries a decoded query and its transport context to a
// Handler.
//
// The Msg of a Request served by this package's Server is pooled: a
// handler must not retain it (or slices taken from it) past ServeDNS.
// Strings extracted from it remain valid indefinitely.
type Request struct {
	// Msg is the decoded query.
	Msg *Message
	// RemoteAddr is the client's transport address.
	RemoteAddr net.Addr
	// Transport is "udp" or "tcp".
	Transport string
	// Received is the server's arrival timestamp for the query.
	Received time.Time
	// Span is the query's root trace span when the Server has a
	// Tracer, nil otherwise. Handlers may annotate it (attribution
	// labels, outcome) but must not End it or retain it past ServeDNS:
	// the Server ends the span after the handler returns.
	Span *trace.Span

	// remote caches RemoteAddr.String(); the Server fills it from its
	// per-source cache so log attribution does not re-render the same
	// resolver's address on every query.
	remote string
}

// RemoteString returns RemoteAddr.String(), computed at most once per
// request and pre-filled by the Server from its per-source cache.
func (r *Request) RemoteString() string {
	if r.remote == "" && r.RemoteAddr != nil {
		r.remote = r.RemoteAddr.String()
	}
	return r.remote
}

// ResponseWriter sends a response for one request.
type ResponseWriter interface {
	// WriteMsg packs and transmits the response. Over UDP the response
	// is truncated to the client's advertised payload size.
	WriteMsg(*Message) error
}

// Handler responds to DNS requests.
type Handler interface {
	ServeDNS(w ResponseWriter, r *Request)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(w ResponseWriter, r *Request)

// ServeDNS calls f(w, r).
func (f HandlerFunc) ServeDNS(w ResponseWriter, r *Request) { f(w, r) }

// Server serves DNS over both UDP and TCP on the same address.
//
// The serving path degrades instead of dying: handler panics are
// recovered into SERVFAIL responses, per-source rate limiting (when
// configured) answers floods with REFUSED, and the accept/read loops
// back off on transient errors (EMFILE-class descriptor exhaustion)
// instead of spinning or exiting.
type Server struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Handler responds to queries. Required.
	Handler Handler
	// ReadTimeout bounds TCP connection idle time. Zero means 10s.
	ReadTimeout time.Duration
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
	pc       net.PacketConn
	ln       net.Listener
	started  bool
	shutdown chan struct{}
	wg       sync.WaitGroup

	limiter *RateLimiter
	sources sourceCache

	metrics serverMetrics
	panics  Counter
	refused Counter
}

// ErrServerStarted is returned when a server is started twice.
var ErrServerStarted = errors.New("dns: server already started")

// Start binds the UDP and TCP sockets and begins serving in background
// goroutines. It returns the bound address (useful with port 0).
func (s *Server) Start() (net.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return nil, ErrServerStarted
	}
	if s.Handler == nil {
		return nil, errors.New("dns: server has no handler")
	}
	addr := s.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// Bind UDP and TCP on the same port. With an ephemeral port the
	// TCP side can race other processes, so retry with a fresh UDP
	// socket when the matching TCP port is taken.
	var pc net.PacketConn
	var ln net.Listener
	var err error
	for attempt := 0; ; attempt++ {
		pc, err = net.ListenPacket("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("dns: udp listen: %w", err)
		}
		ln, err = net.Listen("tcp", pc.LocalAddr().String())
		if err == nil {
			break
		}
		pc.Close()
		_, port, splitErr := net.SplitHostPort(addr)
		ephemeral := splitErr == nil && port == "0"
		if !ephemeral || attempt >= 16 {
			return nil, fmt.Errorf("dns: tcp listen: %w", err)
		}
	}
	s.pc, s.ln = pc, ln
	s.shutdown = make(chan struct{})
	s.started = true
	s.metrics.init()
	if s.MaxQPSPerSource > 0 {
		s.limiter = NewRateLimiter(s.MaxQPSPerSource, s.BurstPerSource)
	}
	s.wg.Add(2)
	go s.serveUDP(pc)
	go s.serveTCP(ln)
	return pc.LocalAddr(), nil
}

// LocalAddr returns the bound UDP address, or nil before Start.
func (s *Server) LocalAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pc == nil {
		return nil
	}
	return s.pc.LocalAddr()
}

// Shutdown stops accepting queries, waits for in-flight handlers (or
// ctx), then closes the UDP socket. The socket stays open while
// handlers run so that a query already being answered still gets its
// answer.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	close(s.shutdown)
	_ = s.pc.SetReadDeadline(time.Now()) // wakes serveUDP, which exits on closing()
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
	s.pc.Close()
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

const maxUDPQuery = 4096

// pktPool recycles the 4096-byte buffers that carry one UDP query from
// the read loop into its serving goroutine.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, maxUDPQuery)
	return &b
}}

// respBufPool recycles response encoding buffers; WriteMsg encodes via
// AppendPack into one of these, so steady-state responses allocate
// nothing for the wire image.
var respBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// sourceCache memoizes the rendered form of client addresses: the full
// addr:port string (query-log attribution) and the bare host (the rate
// limiter's per-source identity). A validating resolver sends bursts
// of queries from one socket, so the same address is rendered once,
// not once per query. The table is bounded like the rate limiter's:
// on overflow it is reset wholesale rather than grown.
type sourceCache struct {
	mu sync.Mutex
	m  map[netip.AddrPort]sourceID
}

type sourceID struct {
	str  string // RemoteAddr.String()
	host string // bare IP, the rate-limiting identity
}

const maxCachedSources = 8192

func (c *sourceCache) lookup(a net.Addr) sourceID {
	var ap netip.AddrPort
	switch v := a.(type) {
	case *net.UDPAddr:
		ap = v.AddrPort()
	case *net.TCPAddr:
		ap = v.AddrPort()
	default:
		return makeSourceID(a)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.m[ap]; ok {
		return id
	}
	if c.m == nil || len(c.m) >= maxCachedSources {
		c.m = make(map[netip.AddrPort]sourceID)
	}
	id := makeSourceID(a)
	c.m[ap] = id
	return id
}

func makeSourceID(a net.Addr) sourceID {
	s := a.String()
	host := s
	if h, _, err := net.SplitHostPort(s); err == nil {
		host = h
	}
	return sourceID{str: s, host: host}
}

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

// overLimit consults the per-source limiter, keyed by the cached bare
// host of the client address.
func (s *Server) overLimit(host string, now time.Time) bool {
	if s.limiter == nil {
		return false
	}
	if s.limiter.Allow(host, now) {
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

func (s *Server) serveUDP(pc net.PacketConn) {
	defer s.wg.Done()
	buf := make([]byte, maxUDPQuery)
	var delay time.Duration
	for {
		n, raddr, err := pc.ReadFrom(buf)
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
		pktp := pktPool.Get().(*[]byte)
		copy(*pktp, buf[:n])
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handlePacket(pc, raddr, pktp, n, received)
		}()
	}
}

func (s *Server) handlePacket(pc net.PacketConn, raddr net.Addr, pktp *[]byte, n int, received time.Time) {
	msg := GetMsg()
	defer PutMsg(msg)
	err := msg.Unpack((*pktp)[:n])
	pktPool.Put(pktp) // Unpack copied everything it keeps
	if err != nil || msg.Response {
		return
	}
	s.metrics.queriesUDP.Inc()
	w := &udpResponseWriter{pc: pc, raddr: raddr, maxSize: msg.EDNSUDPSize(), metrics: &s.metrics}
	src := s.sources.lookup(raddr)
	if s.overLimit(src.host, received) {
		refuse(w, msg)
		s.metrics.observeServe(time.Since(received).Seconds())
		return
	}
	sp := s.Tracer.StartSpan("dns.serve")
	if sp != nil {
		sp.SetAttr("transport", "udp")
		sp.SetAttr("client", src.str)
	}
	s.serveRequest(w, &Request{
		Msg:        msg,
		RemoteAddr: raddr,
		Transport:  "udp",
		Received:   received,
		Span:       sp,
		remote:     src.str,
	})
	secs := time.Since(received).Seconds()
	s.metrics.observeServe(secs)
	if sp != nil {
		s.metrics.setServeExemplar(secs, sp.ExemplarID())
		sp.End()
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

func (s *Server) handleTCPConn(conn net.Conn) {
	defer conn.Close()
	timeout := s.ReadTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	raddr := conn.RemoteAddr()
	src := s.sources.lookup(raddr)
	w := &tcpResponseWriter{conn: conn, metrics: &s.metrics}
	var pkt []byte // per-connection read buffer, grown on demand
	msg := GetMsg()
	defer PutMsg(msg)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		var err error
		pkt, err = readTCPMessageInto(conn, pkt)
		if err != nil {
			return
		}
		received := time.Now()
		if err := msg.Unpack(pkt); err != nil || msg.Response {
			return
		}
		s.metrics.queriesTCP.Inc()
		if s.overLimit(src.host, received) {
			refuse(w, msg)
			s.metrics.observeServe(time.Since(received).Seconds())
			continue
		}
		sp := s.Tracer.StartSpan("dns.serve")
		if sp != nil {
			sp.SetAttr("transport", "tcp")
			sp.SetAttr("client", src.str)
		}
		s.serveRequest(w, &Request{
			Msg:        msg,
			RemoteAddr: raddr,
			Transport:  "tcp",
			Received:   received,
			Span:       sp,
			remote:     src.str,
		})
		secs := time.Since(received).Seconds()
		s.metrics.observeServe(secs)
		if sp != nil {
			s.metrics.setServeExemplar(secs, sp.ExemplarID())
			sp.End()
		}
		if s.closing() {
			return
		}
	}
}

type udpResponseWriter struct {
	pc      net.PacketConn
	raddr   net.Addr
	maxSize int
	metrics *serverMetrics
}

func (w *udpResponseWriter) WriteMsg(m *Message) error {
	if w.metrics != nil {
		w.metrics.rcodes[m.RCode&0x0F].Inc()
	}
	bp := respBufPool.Get().(*[]byte)
	defer respBufPool.Put(bp)
	packed, err := m.AppendPack((*bp)[:0])
	if err != nil {
		return err
	}
	if len(packed) > w.maxSize {
		// Truncate: strip records and set TC so the client retries
		// over TCP.
		trunc := *m
		trunc.Truncated = true
		trunc.Answers, trunc.Authority, trunc.Additional = nil, nil, nil
		if packed, err = trunc.AppendPack(packed[:0]); err != nil {
			return err
		}
	}
	*bp = packed[:0] // keep any growth for the next response
	_, err = w.pc.WriteTo(packed, w.raddr)
	return err
}

type tcpResponseWriter struct {
	conn    net.Conn
	metrics *serverMetrics
}

func (w *tcpResponseWriter) WriteMsg(m *Message) error {
	if w.metrics != nil {
		w.metrics.rcodes[m.RCode&0x0F].Inc()
	}
	bp := respBufPool.Get().(*[]byte)
	defer respBufPool.Put(bp)
	// Encode past a reserved two-octet length prefix (RFC 1035 §4.2.2)
	// so frame and message go out in one write with no extra copy.
	buf := append((*bp)[:0], 0, 0)
	buf, err := m.AppendPack(buf)
	if err != nil {
		return err
	}
	n := len(buf) - 2
	if n > 0xFFFF {
		return ErrRDataTooLong
	}
	buf[0], buf[1] = byte(n>>8), byte(n)
	*bp = buf[:0]
	_, err = w.conn.Write(buf)
	return err
}
