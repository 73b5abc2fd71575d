package netsim_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sendervalid/internal/leaktest"
	"sendervalid/internal/netsim"
)

// TestPipeConnHandOffAddrs checks the endpoints a handed-off
// connection reports: the server end's LocalAddr is the registered
// address and its RemoteAddr the dialer's source, over IPv4 and IPv6
// alike.
func TestPipeConnHandOffAddrs(t *testing.T) {
	defer leaktest.Check(t)()
	client4, client6 := netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("2001:db8:7::7")
	for _, server := range []netip.AddrPort{
		netip.MustParseAddrPort("203.0.113.25:25"),
		netip.MustParseAddrPort("[2001:db8:25::25]:25"),
	} {
		f := netsim.NewFabric()
		got := make(chan [2]net.Addr, 1)
		l, err := f.Handle(server, func(c net.Conn) {
			got <- [2]net.Addr{c.LocalAddr(), c.RemoteAddr()}
			c.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := f.BoundDialer(client4, client6).DialContext(context.Background(), "tcp", server.String())
		if err != nil {
			t.Fatal(err)
		}
		ends := <-got
		if ends[0].String() != server.String() || conn.RemoteAddr().String() != server.String() {
			t.Errorf("%s: server end local = %v, client end remote = %v; want %s", server, ends[0], conn.RemoteAddr(), server)
		}
		if ends[1].String() != conn.LocalAddr().String() {
			t.Errorf("%s: server end remote = %v; want the dialer's %v", server, ends[1], conn.LocalAddr())
		}
		ap := ends[1].(interface{ AddrPort() netip.AddrPort }).AddrPort()
		if want := client4; server.Addr().Is6() {
			want = client6
			if ap.Addr() != want {
				t.Errorf("%s: client address %v; want %v", server, ap.Addr(), want)
			}
		} else if ap.Addr() != want {
			t.Errorf("%s: client address %v; want %v", server, ap.Addr(), want)
		}
		conn.Close()
		l.Close()
	}
}

// TestChaosHandOffClose storms a handed-off address with dials while
// it is closed. Every dial that succeeded had its connection handed to
// the server, and no other; a dial begun after Close returned is
// refused with ECONNREFUSED, and starts no handler.
func TestChaosHandOffClose(t *testing.T) {
	defer leaktest.Check(t)()
	server := netip.MustParseAddrPort("203.0.113.25:25")
	for round := range 50 {
		f := netsim.NewFabric()
		var returned atomic.Bool
		var dialled, served, late atomic.Int32
		first := make(chan struct{})
		var once sync.Once
		l, err := f.Handle(server, func(c net.Conn) {
			served.Add(1)
			once.Do(func() { close(first) })
			c.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		var storm sync.WaitGroup
		for range 8 {
			storm.Add(1)
			go func() {
				defer storm.Done()
				for {
					after := returned.Load()
					conn, err := dialFrom(f, server)
					if err == nil && after {
						late.Add(1)
					}
					if err != nil {
						if !errors.Is(err, syscall.ECONNREFUSED) {
							t.Errorf("dial during Close = %v; want ECONNREFUSED", err)
						}
						return
					}
					dialled.Add(1)
					conn.Close()
				}
			}()
		}
		<-first
		l.Close()
		returned.Store(true)
		storm.Wait()
		if _, err := dialFrom(f, server); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("dial after Close = %v; want ECONNREFUSED", err)
		}
		for deadline := time.Now().Add(2 * time.Second); served.Load() != dialled.Load() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := late.Load(); n > 0 {
			t.Fatalf("round %d: %d dial(s) begun after Close returned were handed over", round, n)
		}
		if s, d := served.Load(), dialled.Load(); s != d {
			t.Fatalf("round %d: %d dials succeeded but %d connections were handed over", round, d, s)
		}
	}
}

// TestChaosHandOffFaults checks that a link's faults act on a
// handed-off connection reproducibly: from the same seed, the same
// dials fail (DialFailure), the same writes reset (ResetRate), the
// server sees each reset its client saw, and it reads every write in
// MaxChunk-sized pieces. Only the client draws from the link's fault
// stream, one dial at a time, so the schedule is deterministic.
func TestChaosHandOffFaults(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)
	server := netip.MustParseAddrPort("203.0.113.25:25")
	msg := []byte("MAIL FROM:<probe@t01.example>\r\n")

	schedule := func() string {
		f := netsim.NewFabric()
		f.SetChaosSeed(seed)
		f.SetFaults(server.Addr(), &netsim.FaultProfile{DialFailure: 0.3, ResetRate: 0.1, MaxChunk: 7})
		reads := make(chan byte)
		serve := func(c net.Conn) {
			defer c.Close()
			var got []byte
			buf := make([]byte, 64)
			for {
				n, err := c.Read(buf)
				if n > 7 {
					t.Errorf("server read %d bytes in one call, MaxChunk=7", n)
				}
				got = append(got, buf[:n]...)
				switch {
				case err == nil:
					continue
				case errors.Is(err, syscall.ECONNRESET) && bytes.HasPrefix(msg, got):
					reads <- 'r'
				case err == io.EOF && bytes.Equal(got, msg):
					reads <- '1'
				default:
					t.Errorf("server read %q, then %v", got, err)
					reads <- '?'
				}
				return
			}
		}
		l, err := f.Handle(server, serve)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var out []byte
		for range 48 {
			conn, err := dialFrom(f, server)
			if err != nil {
				if !errors.Is(err, netsim.ErrConnRefused) {
					t.Fatalf("dial = %v; want ErrConnRefused", err)
				}
				out = append(out, '0', ' ')
				continue
			}
			mark := byte('1')
			if _, err := conn.Write(msg); errors.Is(err, netsim.ErrConnReset) {
				mark = 'r'
			} else if err != nil {
				t.Fatalf("write = %v", err)
			}
			conn.Close()
			out = append(out, mark, <-reads)
		}
		return string(out)
	}

	handed, again := schedule(), schedule()
	if handed != again {
		t.Errorf("one seed, two hand-off fault schedules:\n%s\n%s", handed, again)
	}
	for i := 0; i < len(handed); i += 2 {
		if handed[i] != '0' && handed[i] != handed[i+1] {
			t.Errorf("dial %d: client saw %q, server saw %q", i/2, handed[i], handed[i+1])
		}
	}
	for _, want := range []string{"0", "1", "r"} {
		if !bytes.Contains([]byte(handed), []byte(want)) {
			t.Errorf("schedule %s has no %q outcome: the test covers too little", handed, want)
		}
	}
	t.Logf("schedule: %s", handed)
}
