package netsim

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestListenerCloseResetsBacklog pins what happens to a connection that
// was dialled but never accepted when its listener goes away: the
// dialer sees a reset at once, not its own read deadline.
func TestListenerCloseResetsBacklog(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen(mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := dial(f)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	l.Close()

	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrConnReset) {
		t.Fatalf("read on a connection stranded in a closed listener's backlog = %v; want ErrConnReset", err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Errorf("write = %v; want ErrConnReset", err)
	}
	if _, err := dial(f); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial after close = %v; want ErrConnRefused", err)
	}
}

// TestClosedConnsRetainNothing is the connection-lifecycle pin: a
// connection that armed far-future deadlines on both ends, carried
// traffic and was closed leaves nothing reachable — in particular not
// from the runtime's timer heap, which is where a pending deadline
// timer keeps its whole connection alive until it goes off.
func TestClosedConnsRetainNothing(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen(mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	session := func() {
		client, err := dial(f)
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		far := time.Now().Add(time.Hour)
		_ = client.SetDeadline(far)
		_ = server.SetDeadline(far)
		if _, err := client.Write([]byte("EHLO probe.example\r\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Read(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		client.Close()
		server.Close()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	session() // lazy set-up is not a leak
	before := heap()
	const conns = 20000
	for i := 0; i < conns; i++ {
		session()
	}
	after := heap()
	if grown := int64(after) - int64(before); grown > 1<<20 {
		t.Errorf("%d closed connections retain %d KB (%d B each); want < 1 MB in all",
			conns, grown>>10, grown/conns)
	}
}

// TestDeadlineRearmReusesTimer pins the deadline's cost: pushing a
// pending deadline forward — what a line protocol does before every
// command — allocates nothing, and a deadline that already fired is
// re-armed on the same timer with a fresh cancel channel, so I/O blocks
// again and the new deadline still goes off.
func TestDeadlineRearmReusesTimer(t *testing.T) {
	var d connDeadline
	d.init()
	d.set(time.Now().Add(time.Hour))
	timer, pending := d.timer, d.wait()
	allocs := testing.AllocsPerRun(100, func() {
		d.set(time.Now().Add(time.Hour))
	})
	if allocs != 0 {
		t.Errorf("re-arming a pending deadline: %v allocs/op, want 0", allocs)
	}
	if d.timer != timer || d.wait() != pending {
		t.Error("re-arming a pending deadline replaced its timer or cancel channel")
	}

	d.set(time.Now().Add(time.Millisecond))
	select {
	case <-pending:
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed deadline never fired")
	}
	d.set(time.Now().Add(time.Millisecond))
	fresh := d.wait()
	if fresh == pending {
		t.Fatal("a fired deadline was re-armed without a fresh cancel channel")
	}
	if d.timer != timer {
		t.Error("re-arming a fired deadline built a new timer")
	}
	select {
	case <-fresh:
	case <-time.After(2 * time.Second):
		t.Fatal("deadline re-armed after firing never fired again")
	}

	// stop releases a pending timer, and a stopped deadline never fires.
	d.set(time.Now().Add(20 * time.Millisecond))
	last := d.wait()
	d.stop()
	time.Sleep(60 * time.Millisecond)
	if isClosedChan(last) {
		t.Error("deadline fired after stop")
	}
}

// TestDeadlineOvertakenFireIsIgnored races set against the timer going
// off, from several goroutines so that d.mu is often held at that
// moment. A fire that lost the race belongs to a deadline since
// replaced: it must not be counted twice — that would swallow a later
// deadline's own fire — and once the dust settles the deadline in force
// must be exactly the last one set.
func TestDeadlineOvertakenFireIsIgnored(t *testing.T) {
	var d connDeadline
	d.init()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, after := range []time.Duration{time.Microsecond, 5 * time.Microsecond, 20 * time.Microsecond, time.Hour} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !isClosedChan(stop) {
				d.set(time.Now().Add(after))
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	d.set(time.Now().Add(time.Hour))
	time.Sleep(20 * time.Millisecond) // let every overtaken fire run
	d.mu.Lock()
	stale, armed := d.stale, d.armed
	d.mu.Unlock()
	if stale != 0 || !armed {
		t.Fatalf("after the race: stale = %d, armed = %v; want 0, true", stale, armed)
	}
	if isClosedChan(d.wait()) {
		t.Fatal("an overtaken fire expired the hour-long deadline set after it")
	}
	d.set(time.Now().Add(time.Millisecond))
	select {
	case <-d.wait():
	case <-time.After(2 * time.Second):
		t.Fatal("deadline set after the race never fired")
	}
}
