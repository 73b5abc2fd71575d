package netsim

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// PacketConn is a datagram endpoint bound on the fabric: what a UDP
// socket is to a server. Every "udp" dial to its address gets a
// connected client of its own. The datagrams all clients write queue in
// one inbox, each tagged with its sender's address and port, and
// WriteToUDPAddrPort routes a reply back to the client by that address.
// It has the methods of *net.UDPConn a datagram server needs, so one
// serving loop runs over either.
type PacketConn struct {
	fabric *Fabric
	addr   netip.AddrPort
	inbox  chan datagram
	closed chan struct{}
	once   sync.Once
	dl     connDeadline // reading only
}

// datagram is one message in an endpoint's inbox, tagged with its
// sender.
type datagram struct {
	from netip.AddrPort
	p    []byte
}

// inboxDepth bounds the datagrams an endpoint holds unread. A client
// writing into a full inbox waits, under its write deadline, rather
// than losing the datagram: the fabric drops datagrams only by a link's
// Loss, so a burst of clients never turns into timeouts no fault
// profile planted.
const inboxDepth = 256

// ListenPacket binds a datagram endpoint on addr. A stream server
// (Handle) may share the address: the two are separate port spaces, as UDP and
// TCP are.
func (f *Fabric) ListenPacket(addr netip.AddrPort) (*PacketConn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, taken := f.packets[addr]; taken {
		return nil, fmt.Errorf("%w: udp %s", ErrAddrInUse, addr)
	}
	pc := &PacketConn{
		fabric: f,
		addr:   addr,
		inbox:  make(chan datagram, inboxDepth),
		closed: make(chan struct{}),
	}
	f.packets[addr] = pc
	return pc, nil
}

// ReadFromUDPAddrPort reads the next datagram into b, truncating it to
// len(b) as a UDP read does, and returns its sender's address.
func (pc *PacketConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	if pc.dl.expired(reading) {
		return 0, netip.AddrPort{}, ErrDeadlineExceeded
	}
	select {
	case d := <-pc.inbox:
		return copy(b, d.p), d.from, nil
	default:
	}
	select {
	case d := <-pc.inbox:
		return copy(b, d.p), d.from, nil
	case <-pc.closed:
		return 0, netip.AddrPort{}, net.ErrClosed
	case <-pc.dl.wait(reading):
		return 0, netip.AddrPort{}, ErrDeadlineExceeded
	}
}

// WriteToUDPAddrPort sends b to the client bound at addr. As over UDP,
// a datagram nobody receives still reports success: one the link
// loses, one to a client that has closed, one to a full receive queue.
func (pc *PacketConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if isClosedChan(pc.closed) {
		return 0, net.ErrClosed
	}
	pc.fabric.mu.Lock()
	c := pc.fabric.bound[addr]
	pc.fabric.mu.Unlock()
	if c != nil && c.ep == pc {
		c.receive(b)
	}
	return len(b), nil
}

// SetReadDeadline bounds ReadFromUDPAddrPort. A deadline already past
// wakes every blocked reader at once.
func (pc *PacketConn) SetReadDeadline(t time.Time) error {
	pc.dl.set(t, reading)
	return nil
}

// LocalAddr returns the endpoint's address.
func (pc *PacketConn) LocalAddr() net.Addr { return simAddr(pc.addr) }

// Close unbinds the endpoint and wakes its blocked readers. Dials to
// the address are refused from then on, and its connected clients'
// writes fail with ErrConnRefused, as an ICMP port unreachable fails
// them on a host.
func (pc *PacketConn) Close() error {
	pc.once.Do(func() {
		close(pc.closed)
		pc.fabric.mu.Lock()
		delete(pc.fabric.packets, pc.addr)
		pc.fabric.mu.Unlock()
		pc.dl.stop()
	})
	return nil
}

// connect binds a client from local, on an ephemeral port, to the
// endpoint.
func (pc *PacketConn) connect(local netip.Addr, faults *linkFaults) (net.Conn, error) {
	f := pc.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if isClosedChan(pc.closed) {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, pc.addr)
	}
	addr, err := f.ephemeralLocked(local)
	if err != nil {
		return nil, err
	}
	c := &datagramConn{ep: pc, local: addr, faults: faults, rd: newHalf()}
	f.bound[addr] = c
	return c, nil
}

// datagramConn is the client end of a "udp" dial: a connected socket
// whose writes land in its endpoint's inbox and whose reads return the
// replies the endpoint routes back. Each Read returns one datagram.
type datagramConn struct {
	ep    *PacketConn
	local netip.AddrPort
	// faults is the link's fault state; nil on a healthy link. Its
	// Loss applies to every datagram, in both directions.
	faults *linkFaults
	// rd queues the replies routed to this client.
	rd *half

	dl connDeadline
}

// receive queues a reply, unless the link loses it or the client's
// receive queue is full.
func (c *datagramConn) receive(b []byte) {
	if lf := c.faults; lf != nil && lf.roll(lf.profile.Loss) {
		return
	}
	select {
	case c.rd.ch <- append([]byte(nil), b...):
	default:
	}
}

func (c *datagramConn) Read(p []byte) (int, error) {
	if c.dl.expired(reading) {
		return 0, ErrDeadlineExceeded
	}
	select {
	case d := <-c.rd.ch:
		return copy(p, d), nil
	default:
	}
	select {
	case d := <-c.rd.ch:
		return copy(p, d), nil
	case <-c.rd.closed:
		return 0, c.closedErr()
	case <-c.dl.wait(reading):
		return 0, ErrDeadlineExceeded
	}
}

// Write sends p as one datagram. Flaps and ResetRate reset the client,
// as they reset a stream; Loss drops the datagram after a successful
// write.
func (c *datagramConn) Write(p []byte) (int, error) {
	if isClosedChan(c.rd.closed) {
		return 0, c.closedErr()
	}
	if lf := c.faults; lf != nil {
		if lf.resetsWrite() {
			c.rd.abort(ErrConnReset)
			return 0, ErrConnReset
		}
		if lf.roll(lf.profile.Loss) {
			return len(p), nil
		}
	}
	switch {
	case c.dl.expired(writing):
		return 0, ErrDeadlineExceeded
	case isClosedChan(c.ep.closed):
		return 0, ErrConnRefused
	}
	d := datagram{from: c.local, p: append([]byte(nil), p...)}
	select {
	case c.ep.inbox <- d:
		return len(p), nil
	default:
	}
	select {
	case c.ep.inbox <- d:
		return len(p), nil
	case <-c.ep.closed:
		return 0, ErrConnRefused
	case <-c.dl.wait(writing):
		return 0, ErrDeadlineExceeded
	}
}

// closedErr is what I/O on a closed client returns: the reset that
// closed it, or net.ErrClosed after Close.
func (c *datagramConn) closedErr() error {
	if cause := c.rd.closeCause(); cause != nil {
		return cause
	}
	return net.ErrClosed
}

// Close unbinds the client's port, so a late reply to it is dropped
// and the port can be handed out again.
func (c *datagramConn) Close() error {
	c.rd.close()
	c.dl.stop()
	f := c.ep.fabric
	f.mu.Lock()
	if f.bound[c.local] == c {
		delete(f.bound, c.local)
	}
	f.mu.Unlock()
	return nil
}

func (c *datagramConn) LocalAddr() net.Addr  { return simAddr(c.local) }
func (c *datagramConn) RemoteAddr() net.Addr { return simAddr(c.ep.addr) }

func (c *datagramConn) SetDeadline(t time.Time) error {
	c.dl.set(t, reading, writing)
	return nil
}

func (c *datagramConn) SetReadDeadline(t time.Time) error {
	c.dl.set(t, reading)
	return nil
}

func (c *datagramConn) SetWriteDeadline(t time.Time) error {
	c.dl.set(t, writing)
	return nil
}
