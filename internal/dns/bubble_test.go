//go:build goexperiment.synctest

package dns

import (
	"context"
	"io"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"sendervalid/internal/netsim"
)

// TestShutdownUnreadTCPAnswersBubble connects a fabric TCP client that
// sends queries until its write blocks and never reads an answer, so
// the server's handler blocks writing one. Shutdown, under a ctx longer
// than the write bound, must return nil: the unread answer is given up
// at its write deadline. In a testing/synctest bubble the wait costs
// no wall time. `make synctest` runs it.
func TestShutdownUnreadTCPAnswersBubble(t *testing.T) {
	synctest.Run(func() {
		fabric := netsim.NewFabric()
		addr := netip.MustParseAddrPort("192.0.2.53:53")
		srv := &Server{Handler: echoTXTHandler("v=spf1 -all")}
		defer serveOnFabric(t, fabric, srv, addr).Close()
		conn, err := fabric.DialContext(context.Background(), "tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		q, err := new(Message).SetQuestion("example.com", TypeTXT).AppendPack([]byte{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		q[0], q[1] = byte((len(q)-2)>>8), byte(len(q)-2)
		var sent atomic.Int32
		go func() {
			for {
				if _, err := conn.Write(q); err != nil {
					return // the server closed the connection
				}
				sent.Add(1)
			}
		}()
		// Returns once the client's write and the server's are both
		// blocked on full queues.
		synctest.Wait()
		if sent.Load() == 0 {
			t.Fatal("the client sent no query")
		}

		ctx, cancel := context.WithTimeout(context.Background(), tcpWriteTimeout+time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown with a client that never reads = %v after %d queries; want nil", err, sent.Load())
		}
	})
}

// TestSlowPeerBubble holds TCP connections against a client that never
// sends a query and one that trickles a query one byte per second:
// each must be closed by the server within tcpIdleTimeout, however
// much of a message has arrived. The third slow peer, a client that
// never reads its answers, is TestShutdownUnreadTCPAnswersBubble's,
// bounded by tcpWriteTimeout. `make synctest` and `make chaos` run it.
func TestSlowPeerBubble(t *testing.T) {
	q, err := new(Message).SetQuestion("example.com", TypeTXT).AppendPack([]byte{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	q[0], q[1] = byte((len(q)-2)>>8), byte(len(q)-2)
	cases := []struct {
		name string
		peer func(conn net.Conn)
	}{
		{"never sends", func(net.Conn) {}},
		{"trickles", func(conn net.Conn) {
			for _, b := range q {
				if _, err := conn.Write([]byte{b}); err != nil {
					return // the server closed the connection
				}
				time.Sleep(time.Second)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			synctest.Run(func() {
				fabric := netsim.NewFabric()
				addr := netip.MustParseAddrPort("192.0.2.53:53")
				srv := &Server{Handler: echoTXTHandler("v=spf1 -all")}
				defer serveOnFabric(t, fabric, srv, addr).Close()
				defer srv.Shutdown(context.Background())
				conn, err := fabric.DialContext(context.Background(), "tcp", addr.String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				go tc.peer(conn)
				start := time.Now()
				if _, err := io.Copy(io.Discard, conn); err != nil {
					t.Fatal(err)
				}
				if took := time.Since(start); took > tcpIdleTimeout {
					t.Errorf("connection closed after %v; tcpIdleTimeout is %v", took, tcpIdleTimeout)
				}
			})
		})
	}
}
