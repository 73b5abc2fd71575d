package netsim

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"
)

var dnsAddr = netip.MustParseAddrPort("192.0.2.53:53")

// dialUDP connects a datagram client through f from clientAddr to
// dnsAddr.
func dialUDP(f *Fabric) (net.Conn, error) {
	return f.BoundDialer(clientAddr, netip.Addr{}).DialContext(context.Background(), "udp", dnsAddr.String())
}

func port(c net.Conn) uint16 {
	return netip.MustParseAddrPort(c.LocalAddr().String()).Port()
}

// TestPacketConnRoutesRepliesBySource sends from two clients with the
// same source address: each datagram reaches the endpoint tagged with
// its own client's port, and each reply reaches that client only.
func TestPacketConnRoutesRepliesBySource(t *testing.T) {
	f := NewFabric()
	ep, err := f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	var clients [2]net.Conn
	for i, msg := range []string{"one", "two"} {
		c, err := dialUDP(f)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	if clients[0].LocalAddr().String() == clients[1].LocalAddr().String() {
		t.Fatalf("two live clients share the address %s", clients[0].LocalAddr())
	}
	buf := make([]byte, 16)
	for i := range clients {
		n, from, err := ep.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := clients[i].LocalAddr().String(); from.String() != want {
			t.Errorf("datagram %q tagged %s, sent from %s", buf[:n], from, want)
		}
		if _, err := ep.WriteToUDPAddrPort(append([]byte("re:"), buf[:n]...), from); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []string{"re:one", "re:two"} {
		_ = clients[i].SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := clients[i].Read(buf)
		if err != nil || string(buf[:n]) != want {
			t.Errorf("client %d read %q, %v; want %q", i, buf[:n], err, want)
		}
	}
}

// TestPacketConnEphemeralSkipsLivePort runs the ephemeral range round
// until it wraps: the port a live client still holds is skipped, the
// ports closed clients released are handed out again.
func TestPacketConnEphemeralSkipsLivePort(t *testing.T) {
	f := NewFabric()
	ep, err := f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	live, err := dialUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for {
		c, err := dialUDP(f)
		if err != nil {
			t.Fatal(err)
		}
		p := port(c)
		c.Close()
		if p == 65535 {
			break
		}
	}
	wrapped, err := dialUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()
	next, err := dialUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if got := port(wrapped); got != ephemeralFirst {
		t.Errorf("after 65535 the range wrapped to %d, want %d", got, ephemeralFirst)
	}
	if port(next) == port(live) {
		t.Fatalf("port %d handed out while a live client holds it", port(live))
	}
	if got, want := port(next), port(live)+1; got != want {
		t.Errorf("after skipping live port %d got %d, want %d", port(live), got, want)
	}
}

// TestPacketConnDeadlineAndCloseWakeRead pins the two ways a server
// stops its readers: a read deadline in the past wakes a blocked
// ReadFromUDPAddrPort with a deadline error, and Close wakes one with
// net.ErrClosed.
func TestPacketConnDeadlineAndCloseWakeRead(t *testing.T) {
	f := NewFabric()
	ep, err := f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	blockedRead := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := ep.ReadFromUDPAddrPort(make([]byte, 16))
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let it block
		return done
	}
	wait := func(done chan error) error {
		select {
		case err := <-done:
			return err
		case <-time.After(2 * time.Second):
			t.Fatal("blocked read never woke")
			return nil
		}
	}

	done := blockedRead()
	_ = ep.SetReadDeadline(time.Now())
	if err := wait(done); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read woken by a past deadline: %v, want a deadline error", err)
	}
	_ = ep.SetReadDeadline(time.Time{})
	done = blockedRead()
	ep.Close()
	if err := wait(done); !errors.Is(err, net.ErrClosed) {
		t.Errorf("read woken by Close: %v, want net.ErrClosed", err)
	}
}

// TestPacketConnPastDeadlineWakesEveryReader pins what a server's
// Shutdown relies on: with several readers blocked and no deadline
// set, one SetReadDeadline in the past wakes every one of them.
func TestPacketConnPastDeadlineWakesEveryReader(t *testing.T) {
	f := NewFabric()
	ep, err := f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	const readers = 4
	done := make(chan error, readers)
	for range readers {
		go func() {
			_, _, err := ep.ReadFromUDPAddrPort(make([]byte, 16))
			done <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let them block
	_ = ep.SetReadDeadline(time.Unix(1, 0))
	for range readers {
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("reader woken with %v; want a deadline error", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a past read deadline left a blocked reader asleep")
		}
	}
}

// TestPacketConnClose checks what closing either end does: a dial to a
// closed endpoint is refused and a connected client's write fails the
// same way, while a reply to a closed client is dropped, as UDP drops
// it, and frees the client's port.
func TestPacketConnClose(t *testing.T) {
	f := NewFabric()
	ep, err := f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dialUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	from := netip.MustParseAddrPort(c.LocalAddr().String())
	c.Close()
	if n, err := ep.WriteToUDPAddrPort([]byte("late"), from); n != 4 || err != nil {
		t.Errorf("reply to a closed client = %d, %v; want a silent drop", n, err)
	}
	if len(f.bound) != 0 {
		t.Errorf("a closed client still holds %d bound ports", len(f.bound))
	}

	c, err = dialUDP(f)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ep.Close()
	if _, err := c.Write([]byte("query")); !errors.Is(err, ErrConnRefused) {
		t.Errorf("write to a closed endpoint: %v, want ErrConnRefused", err)
	}
	if _, err := dialUDP(f); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial to a closed endpoint: %v, want ErrConnRefused", err)
	}
	ep, err = f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatalf("rebinding a closed endpoint's address: %v", err)
	}
	ep.Close()
}

// TestPacketConnStreamShareAddress registers a stream server and binds
// a PacketConn on one address, as a DNS server serves UDP and TCP on one port: each
// dial reaches its own kind.
func TestPacketConnStreamShareAddress(t *testing.T) {
	f := NewFabric()
	ep, err := f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := f.ListenPacket(dnsAddr); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("second ListenPacket on one address: %v, want ErrAddrInUse", err)
	}
	if _, err := f.DialContext(context.Background(), "tcp", dnsAddr.String()); !errors.Is(err, ErrConnRefused) {
		t.Errorf("stream dial with only a datagram endpoint bound: %v, want ErrConnRefused", err)
	}
	l, err := NewQueue(f, dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Next(); err == nil {
			c.Close()
		}
	}()
	c, err := f.DialContext(context.Background(), "tcp", dnsAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestClosedDatagramConnsRetainNothing is the datagram side of
// TestClosedConnsRetainNothing: a client that armed a far-future
// deadline, made an exchange and closed leaves neither a bound port
// nor heap behind.
func TestClosedDatagramConnsRetainNothing(t *testing.T) {
	f := NewFabric()
	ep, err := f.ListenPacket(dnsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	buf := make([]byte, 64)
	exchange := func() {
		c, err := dialUDP(f)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(time.Hour))
		if _, err := c.Write([]byte("query")); err != nil {
			t.Fatal(err)
		}
		n, from, err := ep.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.WriteToUDPAddrPort(buf[:n], from); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	exchange()
	before := heap()
	const conns = 20000
	for i := 0; i < conns; i++ {
		exchange()
	}
	after := heap()
	if grown := int64(after) - int64(before); grown > 1<<20 {
		t.Errorf("%d closed datagram clients retain %d KB (%d B each); want < 1 MB in all",
			conns, grown>>10, grown/conns)
	}
	if len(f.bound) != 0 {
		t.Errorf("%d closed datagram clients still hold a bound port", len(f.bound))
	}
}
