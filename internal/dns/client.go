package dns

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"time"
)

// Client exchange errors.
var (
	ErrIDMismatch = errors.New("dns: response ID does not match query")
	ErrNotReply   = errors.New("dns: response flag not set")
)

// Dialer abstracts connection establishment so exchanges can run over
// real sockets or a simulated network fabric.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Client performs DNS exchanges over UDP and TCP.
//
// A zero Client is usable: UDP with a 5-second timeout and automatic
// TCP retry on truncation.
type Client struct {
	// Dialer establishes connections. nil means a net.Dialer.
	Dialer Dialer
	// Timeout bounds a single exchange. Zero means 5 seconds.
	Timeout time.Duration
	// DisableTCPFallback suppresses the TCP retry that normally
	// follows a truncated UDP response.
	DisableTCPFallback bool
}

const defaultTimeout = 5 * time.Second

// ednsUDPSize is the EDNS0 payload size advertised on UDP queries: the
// 1232 octets DNS Flag Day 2020 settled on, which fits an IPv6 path's
// minimum MTU.
const ednsUDPSize = 1232

// pktPool recycles the 4096-byte buffers ExchangeOver reads replies
// into.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, maxUDPQuery)
	return &b
}}

func (c *Client) dialer() Dialer {
	if c.Dialer != nil {
		return c.Dialer
	}
	return &net.Dialer{}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

// nextID returns a fresh transaction ID from the runtime's randomly
// seeded generator: unpredictable, as RFC 5452 §4.3 asks, and lock-free.
func nextID() uint16 {
	return uint16(rand.Uint32())
}

// Query sends a single-question query for (name, t) to addr and
// returns the response. UDP is tried first, with a TCP retry on
// truncation unless disabled.
func (c *Client) Query(ctx context.Context, addr, name string, t Type) (*Message, error) {
	q := new(Message).SetQuestion(name, t)
	return c.Exchange(ctx, q, addr)
}

// Exchange sends msg to addr and returns the response. The message ID
// is assigned if zero. UDP is tried first, with a TCP retry on
// truncation unless disabled.
func (c *Client) Exchange(ctx context.Context, msg *Message, addr string) (*Message, error) {
	if msg.ID == 0 {
		msg.ID = nextID()
	}
	resp, err := c.ExchangeOver(ctx, msg, "udp", addr)
	if err != nil {
		return nil, err
	}
	if resp.Truncated && !c.DisableTCPFallback {
		return c.ExchangeOver(ctx, msg, "tcp", addr)
	}
	return resp, nil
}

// aLongTimeAgo is the deadline that ends an exchange's I/O at once:
// a fixed time in the past, so waking a blocked read reads no clock.
var aLongTimeAgo = time.Unix(1, 0)

// ExchangeOver sends msg to addr over the given network ("udp" or
// "tcp") and returns the response. One deadline bounds the whole
// exchange: the earlier of Timeout from now and ctx's own deadline,
// set on the connection (and bounding the dial, for a stream).
// Cancelling ctx ends the exchange at once.
func (c *Client) ExchangeOver(ctx context.Context, msg *Message, network, addr string) (*Message, error) {
	if msg.ID == 0 {
		msg.ID = nextID()
	}
	deadline := time.Now().Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	wire := msg
	if network == "udp" {
		// Advertise EDNS0 on a copy so the caller's message is
		// unchanged for a potential TCP retry.
		clone := *msg
		clone.Additional = append([]RR(nil), msg.Additional...)
		clone.SetEDNS(ednsUDPSize)
		wire = &clone
	}
	// One pooled packet buffer carries the query out and the reply
	// back: a write copies the query (the kernel and the fabric both
	// do), and Unpack copies everything the returned Message keeps.
	pktp := pktPool.Get().(*[]byte)
	defer pktPool.Put(pktp)
	packed, err := wire.AppendPack((*pktp)[:0])
	if err != nil {
		return nil, fmt.Errorf("dns: packing query: %w", err)
	}

	conn, err := c.dial(ctx, network, addr, deadline)
	if err != nil {
		return nil, fmt.Errorf("dns: dialing %s %s: %w", network, addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	// Cancellation ends the exchange at once rather than at the
	// deadline, so an orphaned resolver flight stops with its callers.
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() { _ = conn.SetDeadline(aLongTimeAgo) })()
	}

	var respBuf []byte
	switch network {
	case "tcp", "tcp4", "tcp6":
		respBuf, err = exchangeTCP(conn, packed, *pktp)
	default:
		respBuf, err = exchangeUDP(conn, packed, *pktp, wire.EDNSUDPSize())
	}
	if err != nil {
		return nil, err
	}

	resp := new(Message)
	if err := resp.Unpack(respBuf); err != nil {
		return nil, fmt.Errorf("dns: unpacking response: %w", err)
	}
	if resp.ID != msg.ID {
		return nil, ErrIDMismatch
	}
	if !resp.Response {
		return nil, ErrNotReply
	}
	return resp, nil
}

// dial connects to addr. A datagram dial never waits on the peer; a
// stream dial does, and stays inside the exchange's deadline.
func (c *Client) dial(ctx context.Context, network, addr string, deadline time.Time) (net.Conn, error) {
	if strings.HasPrefix(network, "tcp") {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	return c.dialer().DialContext(ctx, network, addr)
}

// exchangeUDP sends query and reads the reply datagram into buf. A
// query that advertised a payload larger than buf (an EDNS0 size above
// the 4096 the pool's buffers hold) gets a buffer of its own, so the
// reply it invited is never cut short by the read.
func exchangeUDP(conn net.Conn, query, buf []byte, advertised int) ([]byte, error) {
	if _, err := conn.Write(query); err != nil {
		return nil, fmt.Errorf("dns: udp write: %w", err)
	}
	if advertised > len(buf) {
		buf = make([]byte, advertised)
	}
	n, err := conn.Read(buf)
	if err != nil {
		return nil, fmt.Errorf("dns: udp read: %w", err)
	}
	return buf[:n], nil
}

func exchangeTCP(conn net.Conn, query, buf []byte) ([]byte, error) {
	if err := WriteTCPMessage(conn, query); err != nil {
		return nil, err
	}
	return readTCPMessageInto(conn, buf)
}

// WriteTCPMessage writes a DNS message with the two-octet length
// prefix used over TCP (RFC 1035 §4.2.2).
func WriteTCPMessage(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		return ErrRDataTooLong
	}
	framed := make([]byte, 2+len(msg))
	framed[0] = byte(len(msg) >> 8)
	framed[1] = byte(len(msg))
	copy(framed[2:], msg)
	if _, err := w.Write(framed); err != nil {
		return fmt.Errorf("dns: tcp write: %w", err)
	}
	return nil
}

// ReadTCPMessage reads one length-prefixed DNS message from r.
func ReadTCPMessage(r io.Reader) ([]byte, error) {
	return readTCPMessageInto(r, nil)
}

// readTCPMessageInto reads one length-prefixed DNS message, reusing
// buf's backing array when its capacity suffices — the server's
// per-connection read path passes the previous message's buffer back
// in so a query stream allocates once, not once per query.
func readTCPMessageInto(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("dns: tcp length read: %w", err)
	}
	n := int(lenBuf[0])<<8 | int(lenBuf[1])
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("dns: tcp body read: %w", err)
	}
	return buf, nil
}
