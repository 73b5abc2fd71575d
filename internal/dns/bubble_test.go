//go:build goexperiment.synctest

package dns

import (
	"context"
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
