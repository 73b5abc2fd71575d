package dns

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/netsim"
)

// TestServeFabricEndpoint serves a Server on a simulated fabric's
// datagram endpoint and stream listener: a client bound to a fabric
// address gets answers over UDP and TCP, the handler sees that
// address as RemoteAddr on both transports, and Shutdown wakes the
// endpoint's readers and returns.
func TestServeFabricEndpoint(t *testing.T) {
	fabric := netsim.NewFabric()
	addr := netip.MustParseAddrPort("192.0.2.53:53")
	pc, err := fabric.ListenPacket(addr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := fabric.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	remotes := map[string]netip.Addr{}
	echo := echoTXTHandler("v=spf1 -all")
	srv := &Server{Handler: HandlerFunc(func(w ResponseWriter, r *Request) {
		mu.Lock()
		remotes[r.Transport] = r.RemoteAddr.Addr()
		mu.Unlock()
		echo.ServeDNS(w, r)
	})}
	if err := srv.Serve(pc, ln); err != nil {
		t.Fatal(err)
	}
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
