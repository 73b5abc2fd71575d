// Chaos suite: drives the fabric's fault injection end to end and
// asserts the serving-path invariants the hardening work promises —
// deterministic fault schedules per seed, intact data under chunking
// and loss, correct error identities under resets and flaps, and a
// campaign that survives (and resumes across) a hostile fabric with
// no goroutine leaks.
//
// Every probabilistic test logs its seed; re-run a failure with
//
//	CHAOS_SEED=<seed> go test -run TestChaos ./internal/netsim/
package netsim_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sendervalid/internal/campaign"
	"sendervalid/internal/leaktest"
	"sendervalid/internal/netsim"
	"sendervalid/internal/smtp"
)

// chaosSeed returns the seed for this run: CHAOS_SEED when set, else a
// fixed default so plain `go test` is reproducible. The seed is always
// logged so a chaos failure can be replayed exactly.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(42)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed: %d (re-run with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// drainAccepts keeps a listener's accept queue empty so dial outcomes
// reflect fault injection, not backpressure. Returned stop func closes
// everything accepted.
// dialFrom connects through f from 198.51.100.7 to server.
func dialFrom(f *netsim.Fabric, server netip.AddrPort) (net.Conn, error) {
	return f.BoundDialer(netip.MustParseAddr("198.51.100.7"), netip.Addr{}).DialContext(context.Background(), "tcp", server.String())
}

func drainAccepts(l *netsim.Listener) (stop func()) {
	var mu sync.Mutex
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return func() {
		l.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestChaosSeedDeterminism is the acceptance check for reproducible
// chaos: the same seed must produce the same per-link fault schedule,
// and a different seed a different one.
func TestChaosSeedDeterminism(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)
	server := netip.MustParseAddrPort("203.0.113.80:25")

	schedule := func(seed int64) string {
		f := netsim.NewFabric()
		f.SetChaosSeed(seed)
		f.SetFaults(server.Addr(), &netsim.FaultProfile{DialFailure: 0.5})
		l, err := f.Listen(server)
		if err != nil {
			t.Fatal(err)
		}
		stop := drainAccepts(l)
		defer stop()
		var bits []byte
		for i := 0; i < 64; i++ {
			conn, err := dialFrom(f, server)
			if err == nil {
				conn.Close()
				bits = append(bits, '1')
				continue
			}
			if !errors.Is(err, netsim.ErrConnRefused) {
				t.Fatalf("dial %d: unexpected error %v", i, err)
			}
			bits = append(bits, '0')
		}
		return string(bits)
	}

	a, b := schedule(seed), schedule(seed)
	if a != b {
		t.Errorf("same seed, different fault schedules:\n%s\n%s", a, b)
	}
	if c := schedule(seed + 1); c == a {
		t.Errorf("different seed reproduced the same 64-dial schedule %s", a)
	}
}

// TestChaosDatagramLoss checks that Loss drops whole datagrams in both
// directions between clients and a PacketConn — silently, and only
// some of them — never corrupts or misroutes the ones that arrive, and
// drops the same ones again from the same seed.
func TestChaosDatagramLoss(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)
	server := netip.MustParseAddrPort("203.0.113.53:53")

	// schedule sends one query from each of n clients, one reply to
	// every query that arrives, and returns one mark per client: '.'
	// for a lost query, 'q' for a lost reply, 'r' for a round trip.
	schedule := func(seed int64) string {
		f := netsim.NewFabric()
		f.SetChaosSeed(seed)
		f.SetFaults(server.Addr(), &netsim.FaultProfile{Loss: 0.5})
		ep, err := f.ListenPacket(server)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		dialer := f.BoundDialer(netip.MustParseAddr("198.51.100.7"), netip.Addr{})

		const n = 100
		clients := make([]net.Conn, n)
		for i := range clients {
			c, err := dialer.DialContext(context.Background(), "udp", server.String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients[i] = c
			if _, err := fmt.Fprintf(c, "query-%03d", i); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}

		// A query that survived is already in the inbox, in order.
		marks := []byte(strings.Repeat(".", n))
		buf := make([]byte, 64)
		last := -1
		_ = ep.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		for {
			got, from, err := ep.ReadFromUDPAddrPort(buf)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			var i int
			if _, err := fmt.Sscanf(string(buf[:got]), "query-%d", &i); err != nil || got != 9 || i <= last {
				t.Fatalf("query %q after query %d: corrupted or out of order", buf[:got], last)
			}
			last = i
			if want := clients[i].LocalAddr().String(); from.String() != want {
				t.Fatalf("query %d tagged with %s, sent from %s", i, from, want)
			}
			marks[i] = 'q'
			if _, err := ep.WriteToUDPAddrPort([]byte(fmt.Sprintf("reply-%03d", i)), from); err != nil {
				t.Fatal(err)
			}
		}

		// A reply that survived is already queued at its client.
		var wg sync.WaitGroup
		deadline := time.Now().Add(300 * time.Millisecond)
		for i, c := range clients {
			if marks[i] != 'q' {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = c.SetReadDeadline(deadline)
				b := make([]byte, 64)
				got, err := c.Read(b)
				switch {
				case errors.Is(err, os.ErrDeadlineExceeded):
				case err != nil:
					t.Errorf("client %d: %v", i, err)
				case string(b[:got]) != fmt.Sprintf("reply-%03d", i):
					t.Errorf("client %d received %q", i, b[:got])
				default:
					marks[i] = 'r'
				}
			}()
		}
		wg.Wait()
		return string(marks)
	}

	a := schedule(seed)
	t.Logf("schedule: %s", a)
	queries, replies := strings.Count(a, "q")+strings.Count(a, "r"), strings.Count(a, "r")
	if queries == 0 || queries == len(a) || replies == 0 || replies == queries {
		t.Fatalf("%d of %d queries and %d of their replies arrived; loss=0.5 should drop some and deliver some each way",
			queries, len(a), replies)
	}
	if b := schedule(seed); b != a {
		t.Errorf("same seed, different loss schedules:\n%s\n%s", a, b)
	}
}

// TestChaosPacketDialFailure checks that DialFailure refuses datagram
// dials on the schedule the seed fixes, as it refuses stream dials.
func TestChaosPacketDialFailure(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)
	server := netip.MustParseAddrPort("203.0.113.53:53")

	schedule := func(seed int64) string {
		f := netsim.NewFabric()
		f.SetChaosSeed(seed)
		f.SetFaults(server.Addr(), &netsim.FaultProfile{DialFailure: 0.5})
		ep, err := f.ListenPacket(server)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		var bits []byte
		for i := 0; i < 64; i++ {
			conn, err := f.DialContext(context.Background(), "udp", server.String())
			if err == nil {
				conn.Close()
				bits = append(bits, '1')
				continue
			}
			if !errors.Is(err, netsim.ErrConnRefused) {
				t.Fatalf("dial %d: unexpected error %v", i, err)
			}
			bits = append(bits, '0')
		}
		return string(bits)
	}

	a, b := schedule(seed), schedule(seed)
	if a != b {
		t.Errorf("same seed, different datagram dial schedules:\n%s\n%s", a, b)
	}
	if c := schedule(seed + 1); c == a {
		t.Errorf("different seed reproduced the same 64-dial schedule %s", a)
	}
}

// TestChaosStreamChunking checks that MaxChunk forces partial reads on
// stream connections without corrupting or reordering bytes.
func TestChaosStreamChunking(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)
	server := netip.MustParseAddrPort("203.0.113.25:25")

	f := netsim.NewFabric()
	f.SetChaosSeed(seed)
	f.SetFaults(server.Addr(), &netsim.FaultProfile{MaxChunk: 7})
	l, err := f.Listen(server)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		reads int
		data  []byte
		err   error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		var r result
		buf := make([]byte, 256)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				r.reads++
				if n > 7 {
					r.err = fmt.Errorf("read %d bytes in one call, MaxChunk=7", n)
				}
				r.data = append(r.data, buf[:n]...)
			}
			if err != nil {
				if err != io.EOF && r.err == nil {
					r.err = err
				}
				break
			}
		}
		done <- r
	}()

	conn, err := dialFrom(f, server)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 100)
	for i := range msg {
		msg[i] = byte('a' + i%26)
	}
	if n, err := conn.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("write = %d, %v", n, err)
	}
	conn.Close()

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if string(r.data) != string(msg) {
		t.Fatalf("data corrupted across chunks: got %q", r.data)
	}
	if r.reads < len(msg)/7 {
		t.Errorf("got %d reads for %d bytes at MaxChunk=7; expected at least %d", r.reads, len(msg), len(msg)/7)
	}
}

// TestChaosMidStreamReset checks that a reset surfaces as ECONNRESET on
// the writer, and on the peer's reads once the in-flight data drains.
func TestChaosMidStreamReset(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)
	server := netip.MustParseAddrPort("203.0.113.25:25")

	f := netsim.NewFabric()
	f.SetChaosSeed(seed)
	f.SetFaults(server.Addr(), &netsim.FaultProfile{ResetRate: 1})
	l, err := f.Listen(server)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	peerErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err = conn.Read(make([]byte, 16))
		peerErr <- err
	}()

	conn, err := dialFrom(f, server)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.Write([]byte("EHLO probe\r\n"))
	if !errors.Is(err, netsim.ErrConnReset) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("write after reset = %v; want ErrConnReset wrapping ECONNRESET", err)
	}
	if err := <-peerErr; !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("peer read = %v; want ECONNRESET", err)
	}
}

// TestChaosLinkFlap checks the flap schedule: dials fail with
// ErrLinkDown during the down window at the start of each period and
// succeed in the up window. Windows are wide relative to scheduler
// noise so the phase arithmetic, not timing luck, is under test.
func TestChaosLinkFlap(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)
	server := netip.MustParseAddrPort("203.0.113.25:25")

	f := netsim.NewFabric()
	f.SetChaosSeed(seed) // anchors the chaos epoch: phase 0 is now
	f.SetFaults(server.Addr(), &netsim.FaultProfile{
		FlapPeriod: 1200 * time.Millisecond,
		FlapDown:   600 * time.Millisecond,
	})
	l, err := f.Listen(server)
	if err != nil {
		t.Fatal(err)
	}
	stop := drainAccepts(l)
	defer stop()

	// Phase ~0: inside the down window.
	if _, err := dialFrom(f, server); !errors.Is(err, netsim.ErrLinkDown) {
		t.Fatalf("dial during down window = %v; want ErrLinkDown", err)
	}
	// ErrLinkDown must read as a refusal to retry classifiers.
	if !errors.Is(netsim.ErrLinkDown, syscall.ECONNREFUSED) {
		t.Error("ErrLinkDown does not wrap ECONNREFUSED")
	}

	// Phase ~700ms: inside the up window (600..1200ms).
	time.Sleep(700 * time.Millisecond)
	conn, err := dialFrom(f, server)
	if err != nil {
		t.Fatalf("dial during up window = %v", err)
	}
	conn.Close()
}

// TestPipeConnDeadlineUnblocksRead pins the net.Conn deadline contract
// the fix restored: a Set*Deadline call made while another goroutine is
// blocked in I/O takes effect immediately.
func TestPipeConnDeadlineUnblocksRead(t *testing.T) {
	defer leaktest.Check(t)()
	server := netip.MustParseAddrPort("203.0.113.25:25")

	f := netsim.NewFabric()
	l, err := f.Listen(server)
	if err != nil {
		t.Fatal(err)
	}
	stop := drainAccepts(l)
	defer stop()

	conn, err := dialFrom(f, server)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	readErr := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1)) // no data will ever arrive
		readErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the read block
	conn.SetReadDeadline(time.Now())
	select {
	case err := <-readErr:
		if !errors.Is(err, netsim.ErrDeadlineExceeded) || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read = %v; want ErrDeadlineExceeded wrapping os.ErrDeadlineExceeded", err)
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("read error %v is not a net.Error timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Read did not observe SetReadDeadline from another goroutine")
	}

	// Clearing the deadline must also take effect on a blocked read:
	// set a future deadline, block, extend it past the original, and
	// check the read honors the extension (no early timeout).
	conn.SetReadDeadline(time.Now().Add(80 * time.Millisecond))
	start := time.Now()
	go func() {
		_, err := conn.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(30 * time.Millisecond)
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	err = <-readErr
	if !errors.Is(err, netsim.ErrDeadlineExceeded) {
		t.Fatalf("read = %v; want deadline exceeded", err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("read timed out after %v; the extended deadline was ignored", d)
	}
}

// TestPipeConnDeadlineChurn hammers one connection with concurrent
// reads, writes, and Set*Deadline calls. Run under -race (make check)
// this is the regression test for the deadline-semantics fix: the old
// implementation raced timer replacement against blocked I/O.
func TestPipeConnDeadlineChurn(t *testing.T) {
	defer leaktest.Check(t)()
	server := netip.MustParseAddrPort("203.0.113.25:25")

	f := netsim.NewFabric()
	l, err := f.Listen(server)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	conn, err := dialFrom(f, server)
	if err != nil {
		t.Fatal(err)
	}
	peer, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	spin := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	// Peer drains so writes keep making progress.
	spin(func() {
		peer.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		peer.Read(make([]byte, 64))
	})
	spin(func() {
		conn.SetWriteDeadline(time.Now().Add(5 * time.Millisecond))
		conn.Write([]byte("churn"))
	})
	spin(func() {
		conn.SetReadDeadline(time.Now().Add(time.Millisecond))
		conn.Read(make([]byte, 8))
	})
	// Deadline churners: past, future, and cleared deadlines from
	// goroutines that never do I/O themselves.
	spin(func() { conn.SetDeadline(time.Now().Add(time.Microsecond)) })
	spin(func() { conn.SetReadDeadline(time.Now().Add(time.Hour)) })
	spin(func() {
		conn.SetWriteDeadline(time.Time{})
		time.Sleep(100 * time.Microsecond)
	})

	time.Sleep(200 * time.Millisecond)
	close(stop)
	// A spinner can be blocked in Read/Write under a far-future deadline
	// another churner installed; closing both ends unblocks all I/O so
	// the spinners observe stop.
	conn.Close()
	peer.Close()
	wg.Wait()
}

// TestChaosMiniCampaign is the acceptance run: a fleet of SMTP servers
// behind a fabric injecting dial failures, ≥5% datagram loss, resets,
// jitter, and link flaps; a campaign is started, cancelled mid-flight,
// resumed from its journal, and must converge — every task finished,
// no failures, no escaped panics (a panic fails the test process), no
// goroutine leaks.
func TestChaosMiniCampaign(t *testing.T) {
	defer leaktest.Check(t)()
	seed := chaosSeed(t)

	f := netsim.NewFabric()
	f.SetChaosSeed(seed)
	f.SetDefaultFaults(&netsim.FaultProfile{
		DialFailure: 0.15,
		Loss:        0.10, // exercised by the udp-probe task type
		ResetRate:   0.02,
		MaxChunk:    8,
		Jitter:      2 * time.Millisecond,
		FlapPeriod:  400 * time.Millisecond,
		FlapDown:    60 * time.Millisecond,
	})

	// Fleet: five MTAs, one listener each.
	const fleet = 5
	handler := smtp.Handler{
		OnRcpt: func(s *smtp.Session, to string) *smtp.Reply { return smtp.ReplyOK },
	}
	var servers []*smtp.Server
	var endpoints []*netsim.PacketConn
	mtaAddr := make(map[string]string)
	for i := 0; i < fleet; i++ {
		addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)}), 25)
		l, err := f.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := &smtp.Server{Hostname: fmt.Sprintf("mta%d.example", i), Handler: handler}
		go srv.Serve(l)
		servers = append(servers, srv)
		// The udp-probe task's datagrams land here, unread.
		ep, err := f.ListenPacket(addr)
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, ep)
		mtaAddr[fmt.Sprintf("mta%d", i)] = addr.String()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for _, ep := range endpoints {
			ep.Close()
		}
	}()

	dialer := f.BoundDialer(netip.MustParseAddr("198.51.100.7"), netip.Addr{})
	run := func(ctx context.Context, task campaign.Task) error {
		addr := mtaAddr[task.MTA]
		if task.Test == "udp-probe" {
			// Fire-and-forget datagram to the MTA's PacketConn: loss
			// drops some silently; the probe is complete once the
			// datagram is handed to the fabric.
			conn, err := dialer.DialContext(ctx, "udp", addr)
			if err != nil {
				return err
			}
			defer conn.Close()
			_, err = conn.Write([]byte("probe"))
			return err
		}
		c, err := smtp.Dial(ctx, dialer, addr)
		if err != nil {
			return err
		}
		c.Timeout = 2 * time.Second
		defer c.Abort()
		if err := c.Hello("probe.example"); err != nil {
			return err
		}
		if task.Test == "helo-only" {
			return c.Quit()
		}
		if err := c.Mail("sender@probe.example"); err != nil {
			return err
		}
		if err := c.Rcpt("postmaster@" + task.MTA + ".example"); err != nil {
			return err
		}
		return c.Quit()
	}

	classify := func(err error) campaign.Class {
		if err == nil {
			return campaign.Done
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return campaign.Aborted
		}
		// Under chaos every failure is the fabric's doing: retry.
		return campaign.Transient
	}

	var tasks []campaign.Task
	for mta := range mtaAddr {
		for _, test := range []string{"helo-only", "mail-rcpt", "udp-probe"} {
			tasks = append(tasks, campaign.Task{MTA: mta, Test: test})
		}
	}

	journal := t.TempDir() + "/chaos.journal"
	cfg := campaign.Config{
		Workers:   4,
		ShardRate: 20,
		// Deep attempt budget with backoff spanning more than one flap
		// period: retries must not phase-lock into down windows.
		MaxAttempts: 25,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  500 * time.Millisecond,
		Seed:        seed,
		Classify:    classify,
	}

	// Phase 1: run under chaos, cancel mid-flight.
	replay, jf, err := campaign.OpenJournal(journal, campaign.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jf
	c1 := campaign.New(cfg, run)
	c1.Add(replay.Unfinished(tasks)...)
	ctx1, cancel1 := context.WithTimeout(context.Background(), 250*time.Millisecond)
	err = c1.Run(ctx1)
	cancel1()
	jf.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("phase 1 run: %v", err)
	}
	snap1 := c1.Snapshot()
	t.Logf("phase 1: %s", snap1)

	// Phase 2: resume from the journal; the campaign must converge.
	replay, jf, err = campaign.OpenJournal(journal, campaign.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	unfinished := replay.Unfinished(tasks)
	if snap1.Completed()+len(unfinished) != len(tasks) {
		t.Errorf("journal accounting: %d finished in phase 1 + %d unfinished != %d tasks",
			snap1.Completed(), len(unfinished), len(tasks))
	}
	cfg.Journal = jf
	c2 := campaign.New(cfg, run)
	c2.Add(unfinished...)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if err := c2.Run(ctx2); err != nil {
		t.Fatalf("resumed run did not converge: %v (%s)", err, c2.Snapshot())
	}
	snap2 := c2.Snapshot()
	t.Logf("phase 2: %s", snap2)
	if snap2.Failed > 0 {
		t.Errorf("%d tasks failed permanently under chaos; retries should absorb injected faults", snap2.Failed)
	}
	if snap2.Done != len(unfinished) {
		t.Errorf("resumed run finished %d of %d unfinished tasks", snap2.Done, len(unfinished))
	}

	// The journal must now record every task as finished.
	final, jf3, err := campaign.OpenJournal(journal, campaign.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jf3.Close()
	if left := final.Unfinished(tasks); len(left) != 0 {
		t.Errorf("journal still records %d unfinished tasks after convergence: %v", len(left), left)
	}
}
