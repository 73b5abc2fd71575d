package dns

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sendervalid/internal/leaktest"
	"sendervalid/internal/netsim"
)

// serveOnFabric serves srv at addr on fabric: UDP through Serve, TCP by
// the fabric's hand-off to ServeConn. It returns the stream
// registration, which the caller closes.
func serveOnFabric(t *testing.T, fabric *netsim.Fabric, srv *Server, addr netip.AddrPort) *netsim.Listener {
	t.Helper()
	pc, err := fabric.ListenPacket(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(pc); err != nil {
		t.Fatal(err)
	}
	ln, err := fabric.Handle(addr, srv.ServeConn)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestServeFabricEndpoint serves a Server on a simulated fabric's
// datagram endpoint and stream hand-off: a client bound to a fabric
// address gets answers over UDP and TCP, the handler sees that
// address as RemoteAddr on both transports, and Shutdown wakes the
// endpoint's readers and returns.
func TestServeFabricEndpoint(t *testing.T) {
	fabric := netsim.NewFabric()
	addr := netip.MustParseAddrPort("192.0.2.53:53")
	var mu sync.Mutex
	remotes := map[string]netip.Addr{}
	echo := echoTXTHandler("v=spf1 -all")
	srv := &Server{Handler: HandlerFunc(func(w ResponseWriter, r *Request) {
		mu.Lock()
		remotes[r.Transport] = r.RemoteAddr.Addr()
		mu.Unlock()
		echo.ServeDNS(w, r)
	})}
	ln := serveOnFabric(t, fabric, srv, addr)
	defer ln.Close()
	if got := srv.LocalAddr().String(); got != addr.String() {
		t.Errorf("LocalAddr = %s, want %s", got, addr)
	}

	client := netip.MustParseAddr("203.0.113.25")
	c := &Client{Timeout: 2 * time.Second, Dialer: fabric.BoundDialer(client, netip.Addr{})}
	for _, network := range []string{"udp", "tcp"} {
		q := new(Message).SetQuestion("example.com", TypeTXT)
		resp, err := c.ExchangeOver(context.Background(), q, network, addr.String())
		if err != nil {
			t.Fatalf("%s exchange: %v", network, err)
		}
		if len(resp.Answers) != 1 {
			t.Errorf("%s exchange: %d answers, want 1", network, len(resp.Answers))
		}
		if got := remotes[network]; got != client {
			t.Errorf("%s query seen from %v, want %v", network, got, client)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := fabric.DialContext(context.Background(), "udp", addr.String()); err == nil {
		t.Error("the endpoint still accepts dials after Shutdown")
	}
}

// TestShutdownWakesIdleTCPClient connects a TCP client that sends
// nothing, over a host socket (Start) and over the fabric (Serve and
// ServeConn). Shutdown must end the connection's wait for a query at
// once, not after the idle timeout, and leave nothing running.
func TestShutdownWakesIdleTCPClient(t *testing.T) {
	for _, mode := range []string{"host", "fabric"} {
		t.Run(mode, func(t *testing.T) {
			defer leaktest.Check(t)()
			srv := &Server{Addr: "127.0.0.1:0", Handler: echoTXTHandler("x")}
			var conn net.Conn
			if mode == "host" {
				addr, err := srv.Start()
				if err != nil {
					t.Fatal(err)
				}
				if conn, err = net.Dial("tcp", addr.String()); err != nil {
					t.Fatal(err)
				}
			} else {
				fabric := netsim.NewFabric()
				addr := netip.MustParseAddrPort("192.0.2.53:53")
				defer serveOnFabric(t, fabric, srv, addr).Close()
				var err error
				if conn, err = fabric.DialContext(context.Background(), "tcp", addr.String()); err != nil {
					t.Fatal(err)
				}
			}
			defer conn.Close()
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
				srv.mu.Lock()
				serving := len(srv.conns)
				srv.mu.Unlock()
				if serving == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the server serves %d connections, want 1", serving)
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			start := time.Now()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown with an idle TCP client = %v after %v; want nil", err, time.Since(start))
			}
			if d := time.Since(start); d >= time.Second {
				t.Errorf("Shutdown took %v", d)
			}
		})
	}
}

// TestServeConnShutdownRace storms a fabric-served Server with TCP
// queries while Shutdown runs. Shutdown must not return while a
// connection it let in is still being served: no handler may run after
// it returns, and under -race admit's Add must never race Shutdown's
// Wait. Nothing may be left running afterwards. `make chaos` runs it.
func TestServeConnShutdownRace(t *testing.T) {
	defer leaktest.Check(t)()
	addr := netip.MustParseAddrPort("192.0.2.53:53")
	client := netip.MustParseAddr("198.51.100.7")
	echo := echoTXTHandler("v=spf1 -all")
	for round := range 60 {
		var returned atomic.Bool
		var late atomic.Int32
		started := make(chan struct{}, 1)
		srv := &Server{Handler: HandlerFunc(func(w ResponseWriter, r *Request) {
			if returned.Load() {
				late.Add(1)
			}
			select {
			case started <- struct{}{}:
			default:
			}
			echo.ServeDNS(w, r)
		})}
		fabric := netsim.NewFabric()
		ln := serveOnFabric(t, fabric, srv, addr)

		c := &Client{Timeout: 2 * time.Second, Dialer: fabric.BoundDialer(client, netip.Addr{})}
		var storm sync.WaitGroup
		for range 8 {
			storm.Add(1)
			go func() {
				defer storm.Done()
				for {
					q := new(Message).SetQuestion("example.com", TypeTXT)
					if _, err := c.ExchangeOver(context.Background(), q, "tcp", addr.String()); err != nil {
						return // closed unserved, or refused once ln is closed
					}
				}
			}()
		}
		// Shut down at a different point of the storm each round.
		<-started
		for range round % 4 {
			<-started
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		returned.Store(true)
		ln.Close()
		storm.Wait()
		if err != nil {
			t.Fatalf("round %d: Shutdown = %v", round, err)
		}
		if n := late.Load(); n > 0 {
			t.Fatalf("round %d: %d handler(s) ran after Shutdown returned", round, n)
		}
	}
}
