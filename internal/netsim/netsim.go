// Package netsim provides an in-process network fabric for large-scale
// protocol simulation. Simulated hosts listen on arbitrary synthetic
// IPv4/IPv6 addresses (the public addresses a measurement dataset
// assigns to MTAs), and dialers connect to them without consuming real
// sockets. Connections are buffered duplex pipes whose LocalAddr and
// RemoteAddr report the synthetic addresses, so address-sensitive
// protocol logic — SPF validation of the connecting client's IP, AS
// attribution — behaves exactly as it would over a real network.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Errors returned by the fabric. ErrConnRefused, ErrConnReset, and
// ErrDeadlineExceeded wrap their syscall/os counterparts so transport
// code written against real sockets classifies fabric failures the
// same way (errors.Is against syscall.ECONNREFUSED, syscall.ECONNRESET,
// os.ErrDeadlineExceeded).
var (
	ErrAddrInUse        = errors.New("netsim: address already in use")
	ErrConnRefused      = fmt.Errorf("netsim: %w", syscall.ECONNREFUSED)
	ErrConnReset        = fmt.Errorf("netsim: %w", syscall.ECONNRESET)
	ErrListenerClosed   = errors.New("netsim: listener closed")
	ErrDeadlineExceeded = fmt.Errorf("netsim: %w", os.ErrDeadlineExceeded)
	// ErrLinkDown reports a dial attempted while the link is inside a
	// fault-profile flap window.
	ErrLinkDown = fmt.Errorf("netsim: link down: %w", syscall.ECONNREFUSED)
)

// Fabric routes connections between simulated addresses.
type Fabric struct {
	mu        sync.Mutex
	listeners map[netip.AddrPort]*Listener
	nextEphem uint16
	// Unreachable marks addresses that refuse all connections,
	// simulating filtered or offline hosts.
	unreachable map[netip.Addr]bool

	// Chaos state: per-link fault profiles (keyed by remote address),
	// the default profile for unlisted links, and the seed/epoch that
	// make fault schedules reproducible (see fault.go).
	faults        map[netip.Addr]*linkFaults
	defaultFaults *FaultProfile
	chaosSeed     int64
	chaosEpoch    time.Time
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		listeners:   make(map[netip.AddrPort]*Listener),
		unreachable: make(map[netip.Addr]bool),
		faults:      make(map[netip.Addr]*linkFaults),
		nextEphem:   32768,
	}
}

// SetUnreachable marks or clears an address as refusing connections.
func (f *Fabric) SetUnreachable(addr netip.Addr, unreachable bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if unreachable {
		f.unreachable[addr] = true
	} else {
		delete(f.unreachable, addr)
	}
}

// Listen registers a listener on addr.
func (f *Fabric) Listen(addr netip.AddrPort) (*Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, taken := f.listeners[addr]; taken {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &Listener{
		fabric:  f,
		addr:    addr,
		backlog: make(chan *pipeConn, 128),
		closed:  make(chan struct{}),
	}
	f.listeners[addr] = l
	return l, nil
}

// dial establishes a connection, applying the link's fault profile.
// datagram marks the connection as message-oriented ("udp"), which
// makes it subject to probabilistic loss but exempt from chunking.
func (f *Fabric) dial(ctx context.Context, local, remote netip.AddrPort, datagram bool) (net.Conn, error) {
	f.mu.Lock()
	if local.Port() == 0 {
		f.nextEphem++
		if f.nextEphem == 0 {
			f.nextEphem = 32768
		}
		local = netip.AddrPortFrom(local.Addr(), f.nextEphem)
	}
	l, ok := f.listeners[remote]
	refused := f.unreachable[remote.Addr()]
	f.mu.Unlock()

	faults := f.faultsFor(remote.Addr())
	if faults != nil {
		if faults.down(time.Now()) {
			return nil, fmt.Errorf("%w: %s", ErrLinkDown, remote)
		}
		if faults.roll(faults.profile.DialFailure) {
			return nil, fmt.Errorf("%w: %s", ErrConnRefused, remote)
		}
		if latency := faults.jitter(); latency > 0 {
			select {
			case <-time.After(latency):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	if refused || !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, remote)
	}

	clientEnd, serverEnd := newPipePair(local, remote)
	clientEnd.faults, serverEnd.faults = faults, faults
	clientEnd.datagram, serverEnd.datagram = datagram, datagram
	select {
	case l.backlog <- serverEnd:
		if isClosedChan(l.closed) {
			l.resetBacklog() // Close may have swept before this landed
		}
		return clientEnd, nil
	case <-l.closed:
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, remote)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// DialContext implements the dns.Dialer / generic dialer shape. All
// connections are duplex pipes, but "udp" networks mark the connection
// as message-oriented: each write is one datagram, subject to the
// link's probabilistic loss but never split into partial reads. The
// local address is a synthetic client endpoint.
func (f *Fabric) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	remote, err := netip.ParseAddrPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad address %q: %w", address, err)
	}
	local := netip.AddrPortFrom(netip.MustParseAddr("198.18.0.1"), 0)
	if remote.Addr().Is6() {
		local = netip.AddrPortFrom(netip.MustParseAddr("2001:db8:ffff::1"), 0)
	}
	return f.dial(ctx, local, remote, isDatagram(network))
}

// isDatagram reports whether the dial network names a message-oriented
// transport.
func isDatagram(network string) bool {
	return strings.HasPrefix(network, "udp")
}

// BoundDialer returns a Dialer whose connections originate from the
// given source addresses (IPv4 and IPv6 selected by the remote's
// family). Protocols that authenticate the client address — SPF above
// all — see the bound address as the connecting IP.
func (f *Fabric) BoundDialer(local4, local6 netip.Addr) *BoundDialer {
	return &BoundDialer{fabric: f, local4: local4, local6: local6}
}

// BoundDialer dials through a Fabric from fixed source addresses.
type BoundDialer struct {
	fabric *Fabric
	local4 netip.Addr
	local6 netip.Addr
}

// DialContext implements the generic dialer shape over the fabric.
func (d *BoundDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	remote, err := netip.ParseAddrPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad address %q: %w", address, err)
	}
	local := d.local4
	if remote.Addr().Is6() {
		local = d.local6
	}
	if !local.IsValid() {
		return nil, fmt.Errorf("%w: no local %s address bound", ErrConnRefused, address)
	}
	return d.fabric.dial(ctx, netip.AddrPortFrom(local, 0), remote, isDatagram(network))
}

// Listener accepts fabric connections for one address.
type Listener struct {
	fabric  *Fabric
	addr    netip.AddrPort
	backlog chan *pipeConn
	closed  chan struct{}
	once    sync.Once
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrListenerClosed
	}
}

// Close deregisters the listener and resets the connections still
// waiting in its backlog, so their dialers see ErrConnReset — what TCP
// delivers when a listening socket goes away — instead of waiting out
// their own read deadlines on a connection nobody will ever serve.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.fabric.mu.Lock()
		delete(l.fabric.listeners, l.addr)
		l.fabric.mu.Unlock()
		l.resetBacklog()
	})
	return nil
}

// resetBacklog aborts every connection queued but not accepted.
func (l *Listener) resetBacklog() {
	for {
		select {
		case c := <-l.backlog:
			c.reset() // never accepted, so it holds no deadline to stop
		default:
			return
		}
	}
}

// Addr returns the simulated listen address.
func (l *Listener) Addr() net.Addr {
	return simAddr(l.addr)
}

// simAddr renders a simulated address as a net.Addr.
type simAddr netip.AddrPort

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return netip.AddrPort(a).String() }

// newPipePair creates the two ends of a buffered duplex connection.
func newPipePair(client, server netip.AddrPort) (*pipeConn, *pipeConn) {
	c2s := newHalf()
	s2c := newHalf()
	clientEnd := &pipeConn{rd: s2c, wr: c2s, local: client, remote: server}
	serverEnd := &pipeConn{rd: c2s, wr: s2c, local: server, remote: client}
	clientEnd.initDeadlines()
	serverEnd.initDeadlines()
	return clientEnd, serverEnd
}

// half is one direction of a pipe: a bounded queue of byte chunks.
type half struct {
	ch     chan []byte
	closed chan struct{}
	once   sync.Once

	mu   sync.Mutex
	rem  []byte // partially consumed chunk
	fail error  // close cause when abnormal (e.g. ErrConnReset)
}

// queueDepth bounds the chunks one direction holds before Write blocks
// on the reader, as a full send window would. The protocols crossing
// the fabric are lock-step — one command or datagram out, one reply
// back — and the deepest queue a probe campaign ever builds is one
// chunk, so the bound is that plus a little slack for a writer that
// runs ahead (a chunked reply, a command sent behind an unread
// greeting); every connection pays for the slots whether it fills them
// or not.
const queueDepth = 4

func newHalf() *half {
	return &half{ch: make(chan []byte, queueDepth), closed: make(chan struct{})}
}

func (h *half) close() {
	h.once.Do(func() { close(h.closed) })
}

// abort closes the half recording cause, so readers and writers see it
// instead of the clean EOF/closed-pipe errors.
func (h *half) abort(cause error) {
	h.mu.Lock()
	if h.fail == nil {
		h.fail = cause
	}
	h.mu.Unlock()
	h.close()
}

// closeCause returns the abnormal-close cause, or nil after a clean
// close.
func (h *half) closeCause() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fail
}

// connDeadline is one direction's cancellable deadline. Setting the
// deadline while an I/O operation is blocked takes effect immediately:
// the operation selects on the cancel channel the deadline closes when
// it fires. This mirrors net.Pipe's deadline machinery, which is the
// contract net.Conn implementations must honour under concurrent
// SetDeadline calls — except that one timer serves the connection's
// whole life: a protocol that pushes its deadline forward before every
// command re-arms it with Reset, and stop releases it.
type connDeadline struct {
	mu     sync.Mutex
	timer  *time.Timer // runs fire; created by the first future deadline
	armed  bool        // timer is pending and its fire will be honoured
	stale  int         // fire calls in flight for a deadline since replaced
	cancel chan struct{}
}

func (d *connDeadline) init() {
	d.cancel = make(chan struct{})
}

// set arms (or clears, for a zero time) the deadline.
func (d *connDeadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()

	expired := isClosedChan(d.cancel)
	dur := time.Until(t)
	switch {
	case t.IsZero():
		// No deadline: replace an already-fired channel so future I/O
		// blocks again.
		d.disarmLocked()
		if expired {
			d.cancel = make(chan struct{})
		}
		return
	case dur <= 0:
		// Deadline in the past: expire immediately.
		d.disarmLocked()
		if !expired {
			close(d.cancel)
		}
		return
	}
	if expired {
		d.cancel = make(chan struct{})
	}
	switch {
	case d.timer == nil:
		d.timer = time.AfterFunc(dur, d.fire)
	case !d.timer.Reset(dur) && d.armed:
		// The timer went off before Reset reached it; its fire is
		// waiting for d.mu and belongs to the deadline just replaced.
		d.stale++
	}
	d.armed = true
}

// disarmLocked stops a pending timer. Caller holds d.mu.
func (d *connDeadline) disarmLocked() {
	if d.armed && !d.timer.Stop() {
		d.stale++ // already running: see set
	}
	d.armed = false
}

// stop releases the timer when the connection closes, so a finished
// connection is not kept reachable from the runtime's timer heap until
// a deadline nobody waits for any more goes off.
func (d *connDeadline) stop() {
	d.mu.Lock()
	d.disarmLocked()
	d.mu.Unlock()
}

// fire is the timer's function: it expires the deadline unless set or
// stop overtook it between the timer going off and fire taking d.mu.
func (d *connDeadline) fire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stale > 0 {
		d.stale--
		return
	}
	d.armed = false
	close(d.cancel)
}

// wait returns the channel closed when the deadline fires.
func (d *connDeadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// pipeConn is one endpoint of a fabric connection.
type pipeConn struct {
	rd, wr *half
	local  netip.AddrPort
	remote netip.AddrPort

	// faults is the link's fault state (shared by both ends); nil on a
	// healthy link. datagram marks message-oriented connections.
	faults   *linkFaults
	datagram bool

	rdDL connDeadline
	wrDL connDeadline
}

func (c *pipeConn) initDeadlines() {
	c.rdDL.init()
	c.wrDL.init()
}

func (c *pipeConn) Read(p []byte) (int, error) {
	c.rd.mu.Lock()
	if len(c.rd.rem) > 0 {
		n := copy(p, c.rd.rem)
		c.rd.rem = c.rd.rem[n:]
		c.rd.mu.Unlock()
		return n, nil
	}
	c.rd.mu.Unlock()

	cancel := c.rdDL.wait()
	if isClosedChan(cancel) {
		return 0, ErrDeadlineExceeded
	}
	select {
	case chunk, ok := <-c.rd.ch:
		if !ok {
			return 0, c.readCloseErr()
		}
		n := copy(p, chunk)
		if n < len(chunk) {
			c.rd.mu.Lock()
			c.rd.rem = chunk[n:]
			c.rd.mu.Unlock()
		}
		return n, nil
	case <-c.rd.closed:
		// Drain anything enqueued before close.
		select {
		case chunk, ok := <-c.rd.ch:
			if ok && len(chunk) > 0 {
				n := copy(p, chunk)
				if n < len(chunk) {
					c.rd.mu.Lock()
					c.rd.rem = chunk[n:]
					c.rd.mu.Unlock()
				}
				return n, nil
			}
		default:
		}
		return 0, c.readCloseErr()
	case <-cancel:
		return 0, ErrDeadlineExceeded
	}
}

// readCloseErr maps a closed read half to its surfaced error: the
// abnormal cause (connection reset) when present, clean EOF otherwise.
func (c *pipeConn) readCloseErr() error {
	if cause := c.rd.closeCause(); cause != nil {
		return cause
	}
	return io.EOF
}

func (c *pipeConn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if c.faults != nil {
		if err := c.injectWriteFault(); err != nil {
			return 0, err
		}
		if c.datagram {
			if c.faults.roll(c.faults.profile.Loss) {
				// The datagram vanishes on the wire: a successful local
				// write the receiver never sees.
				return len(p), nil
			}
		} else if max := c.faults.maxChunk(); max > 0 && len(p) > max {
			return c.writeChunked(p, max)
		}
	}
	return c.writeChunk(p)
}

// injectWriteFault applies flap and reset faults to one write. On
// injection it tears down both directions so the peer observes the
// reset too, and returns the error the writer sees.
func (c *pipeConn) injectWriteFault() error {
	lf := c.faults
	if lf.down(time.Now()) || lf.roll(lf.profile.ResetRate) {
		c.reset()
		return ErrConnReset
	}
	return nil
}

// reset tears down both directions with ErrConnReset, so this end and
// the peer both observe the reset.
func (c *pipeConn) reset() {
	c.wr.abort(ErrConnReset)
	c.rd.abort(ErrConnReset)
}

// writeChunked delivers p in max-sized chunks, so the peer observes
// partial reads and this side observes short writes on failure
// mid-stream.
func (c *pipeConn) writeChunked(p []byte, max int) (int, error) {
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > max {
			n = max
		}
		if _, err := c.writeChunk(p[:n]); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
		// Re-roll faults between chunks: a large write can reset partway
		// through, leaving the peer with a short read.
		if len(p) > 0 && c.faults != nil {
			if err := c.injectWriteFault(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// writeChunk enqueues one chunk, honouring the write deadline.
func (c *pipeConn) writeChunk(p []byte) (int, error) {
	cancel := c.wrDL.wait()
	if isClosedChan(cancel) {
		return 0, ErrDeadlineExceeded
	}
	chunk := append([]byte(nil), p...)
	select {
	case <-c.wr.closed:
		return 0, c.writeCloseErr()
	default:
	}
	select {
	case c.wr.ch <- chunk:
		return len(p), nil
	case <-c.wr.closed:
		return 0, c.writeCloseErr()
	case <-cancel:
		return 0, ErrDeadlineExceeded
	}
}

// writeCloseErr maps a closed write half to its surfaced error.
func (c *pipeConn) writeCloseErr() error {
	if cause := c.wr.closeCause(); cause != nil {
		return cause
	}
	return io.ErrClosedPipe
}

// Close closes both directions and releases this end's deadline
// timers; nothing of a closed connection stays reachable from the
// runtime.
func (c *pipeConn) Close() error {
	c.wr.close()
	c.rd.close()
	c.rdDL.stop()
	c.wrDL.stop()
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr  { return simAddr(c.local) }
func (c *pipeConn) RemoteAddr() net.Addr { return simAddr(c.remote) }

func (c *pipeConn) SetDeadline(t time.Time) error {
	c.rdDL.set(t)
	c.wrDL.set(t)
	return nil
}

func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.rdDL.set(t)
	return nil
}

func (c *pipeConn) SetWriteDeadline(t time.Time) error {
	c.wrDL.set(t)
	return nil
}
