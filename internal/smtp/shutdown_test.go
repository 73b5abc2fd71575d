package smtp

import (
	"context"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sendervalid/internal/leaktest"
	"sendervalid/internal/netsim"
)

// TestServeShutdownRace storms a server with dials while Close runs,
// over both ways a connection reaches it: Serve's accept loop on a
// host loopback listener, and the fabric's hand-off to ServeConn.
// Close must not return while a session it let in is still starting:
// no OnConnect may run after it, and under -race the session count's
// Add must never race Close's Wait (a WaitGroup counted up from zero
// while Wait runs). Nothing may be left running afterwards. `make
// chaos` runs it.
func TestServeShutdownRace(t *testing.T) {
	defer leaktest.Check(t)()
	addr := netip.MustParseAddrPort("203.0.113.25:25")
	client := netip.MustParseAddr("198.51.100.7")
	for _, mode := range []string{"accept", "hand-off"} {
		t.Run(mode, func(t *testing.T) {
			for round := range 60 {
				var returned atomic.Bool
				var late atomic.Int32
				started := make(chan struct{}, 1)
				srv := &Server{ReadTimeout: 2 * time.Second, Handler: Handler{
					OnConnect: func(*Session) *Reply {
						if returned.Load() {
							late.Add(1)
						}
						select {
						case started <- struct{}{}:
						default:
						}
						return nil
					},
				}}
				var ln io.Closer
				var dial func() (net.Conn, error)
				served := make(chan struct{})
				if mode == "accept" {
					host, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					go func() {
						defer close(served)
						srv.Serve(host)
					}()
					ln = host
					dial = func() (net.Conn, error) { return net.Dial("tcp", host.Addr().String()) }
				} else {
					fabric := netsim.NewFabric()
					handed, err := fabric.Handle(addr, srv.ServeConn)
					if err != nil {
						t.Fatal(err)
					}
					close(served)
					ln = handed
					dialer := fabric.BoundDialer(client, netip.Addr{})
					dial = func() (net.Conn, error) {
						return dialer.DialContext(context.Background(), "tcp", addr.String())
					}
				}

				var storm sync.WaitGroup
				for range 8 {
					storm.Add(1)
					go func() {
						defer storm.Done()
						for {
							conn, err := dial()
							if err != nil {
								return // refused: the listener is gone
							}
							greet(conn)
						}
					}()
				}
				// Close at a different point of the storm each round.
				<-started
				for range round % 4 {
					<-started
				}
				srv.Close()
				returned.Store(true)
				ln.Close()
				storm.Wait()
				<-served
				if n := late.Load(); n > 0 {
					t.Fatalf("round %d: %d session(s) ran OnConnect after Close returned", round, n)
				}
			}
		})
	}
}

// greet reads what the server sends first — a greeting, or the EOF of
// a connection it closed unserved — and hangs up.
func greet(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, _ = conn.Read(make([]byte, 64))
	conn.Close()
}

// TestClientIP reads the session's client address from every shape of
// net.Addr a connection reports.
func TestClientIP(t *testing.T) {
	want := netip.MustParseAddr("198.51.100.7")
	fabric, server := netsim.NewFabric(), netip.MustParseAddrPort("203.0.113.25:25")
	ln, err := fabric.Handle(server, func(c net.Conn) { c.Close() })
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := fabric.BoundDialer(want, netip.Addr{}).DialContext(context.Background(), "tcp", server.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, tc := range []struct {
		name string
		addr net.Addr
		want netip.Addr
	}{
		{"fabric", conn.LocalAddr(), want},
		{"tcp", &net.TCPAddr{IP: net.ParseIP("198.51.100.7"), Port: 25}, want},
		{"tcp v4-mapped", net.TCPAddrFromAddrPort(netip.MustParseAddrPort("[::ffff:198.51.100.7]:25")), want},
		{"other", &net.UnixAddr{Name: "smtp.sock", Net: "unix"}, netip.Addr{}},
		{"string", stringAddr("[2001:db8::7]:25"), netip.MustParseAddr("2001:db8::7")},
		{"nil", nil, netip.Addr{}},
	} {
		if got := clientIP(tc.addr); got != tc.want {
			t.Errorf("%s: clientIP(%v) = %v, want %v", tc.name, tc.addr, got, tc.want)
		}
	}
}

// stringAddr is a net.Addr with nothing but its String.
type stringAddr string

func (a stringAddr) Network() string { return "test" }
func (a stringAddr) String() string  { return string(a) }
