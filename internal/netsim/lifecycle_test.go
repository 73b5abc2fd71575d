package netsim

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestClosedConnsRetainNothing is the connection-lifecycle pin: a
// connection that armed far-future deadlines on both ends, carried
// traffic and was closed leaves nothing reachable — in particular not
// from the runtime's timer heap, which is where a pending deadline
// timer keeps its whole connection alive until it goes off.
func TestClosedConnsRetainNothing(t *testing.T) {
	f := NewFabric()
	l, err := NewQueue(f, mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	session := func() {
		client, err := dial(f)
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Next()
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
// re-armed on the same timer with a fresh wake channel, so I/O blocks
// again and the new deadline still goes off.
func TestDeadlineRearmReusesTimer(t *testing.T) {
	var d connDeadline
	d.set(time.Now().Add(time.Hour), reading, writing)
	timer, pending := d.timer, d.wait(reading)
	allocs := testing.AllocsPerRun(100, func() {
		d.set(time.Now().Add(time.Hour), reading, writing)
	})
	if allocs != 0 {
		t.Errorf("re-arming a pending deadline: %v allocs/op, want 0", allocs)
	}
	if d.timer != timer || d.wait(reading) != pending {
		t.Error("re-arming a pending deadline replaced its timer or wake channel")
	}

	d.set(time.Now().Add(time.Millisecond), reading, writing)
	select {
	case <-pending:
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed deadline never fired")
	}
	d.set(time.Now().Add(time.Millisecond), reading, writing)
	fresh := d.wait(reading)
	if fresh == pending {
		t.Fatal("a fired deadline was re-armed without a fresh wake channel")
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
	d.set(time.Now().Add(20*time.Millisecond), reading, writing)
	last := d.wait(reading)
	d.stop()
	time.Sleep(60 * time.Millisecond)
	if isClosedChan(last) {
		t.Error("deadline fired after stop")
	}
}

// TestDeadlineOvertakenFireIsIgnored races set against the timer going
// off, from several goroutines so that d.mu is often held at that
// moment. The timer is armed in two places, by set and by a fire that
// leaves the other direction's later deadline pending, so the racers
// set one direction or both. A fire that lost the race belongs to a
// deadline since replaced: it must not be counted twice — that would
// swallow a later deadline's own fire — and once the dust settles the
// deadline in force must be exactly the last one set.
func TestDeadlineOvertakenFireIsIgnored(t *testing.T) {
	var d connDeadline
	var wg sync.WaitGroup
	stop := make(chan struct{})
	racers := []struct {
		after time.Duration
		dirs  []direction
	}{
		{time.Microsecond, []direction{reading, writing}},
		{5 * time.Microsecond, []direction{reading}},
		{20 * time.Microsecond, []direction{writing}},
		{time.Hour, []direction{reading, writing}},
		{50 * time.Microsecond, []direction{writing}},
	}
	for _, r := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !isClosedChan(stop) {
				d.set(time.Now().Add(r.after), r.dirs...)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	d.set(time.Now().Add(time.Hour), reading, writing)
	time.Sleep(20 * time.Millisecond) // let every overtaken fire run
	d.mu.Lock()
	stale, armed := d.stale, d.armed
	d.mu.Unlock()
	if stale != 0 || !armed {
		t.Fatalf("after the race: stale = %d, armed = %v; want 0, true", stale, armed)
	}
	if isClosedChan(d.wait(reading)) || isClosedChan(d.wait(writing)) {
		t.Fatal("an overtaken fire expired the hour-long deadline set after it")
	}
	d.set(time.Now().Add(time.Millisecond), writing)
	select {
	case <-d.wait(writing):
	case <-time.After(2 * time.Second):
		t.Fatal("deadline set after the race never fired")
	}
	// The fire re-armed the timer for the read deadline left pending.
	d.mu.Lock()
	armed, when, at := d.armed, d.when, d.dir[reading].at
	d.mu.Unlock()
	if !armed || !when.Equal(at) || isClosedChan(d.wait(reading)) {
		t.Fatalf("after the write deadline fired: armed = %v for %v; want the pending read deadline %v", armed, when, at)
	}
}

// TestPipeConnSetDeadlineArmsOneTimer pins what a deadline costs a
// connection: SetDeadline arms one timer for both directions, so it
// allocates no more than SetReadDeadline does, and neither makes a
// wake channel while no I/O waits.
func TestPipeConnSetDeadlineArmsOneTimer(t *testing.T) {
	far := time.Now().Add(time.Hour)
	arm := func(set func(c *pipeConn)) float64 {
		return testing.AllocsPerRun(200, func() {
			c := new(pipeConn)
			set(c)
			c.dl.stop()
		})
	}
	both := arm(func(c *pipeConn) { _ = c.SetDeadline(far) })
	read := arm(func(c *pipeConn) { _ = c.SetReadDeadline(far) })
	if both != read {
		t.Errorf("SetDeadline: %v allocs, SetReadDeadline: %v; want one timer for both directions", both, read)
	}
	var c pipeConn
	_ = c.SetDeadline(far)
	if c.dl.dir[reading].wake != nil || c.dl.dir[writing].wake != nil {
		t.Error("SetDeadline made a wake channel with no I/O waiting")
	}
	c.dl.stop()
}

// TestPipeConnWriteAfterDeadlineFires: a write deadline that fired
// while nothing was writing fails the next Write, and so does one
// SetDeadline armed for both directions.
func TestPipeConnWriteAfterDeadlineFires(t *testing.T) {
	f := NewFabric()
	l, err := NewQueue(f, mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, set := range []func(net.Conn, time.Time) error{net.Conn.SetWriteDeadline, net.Conn.SetDeadline} {
		conn, err := dial(f)
		if err != nil {
			t.Fatal(err)
		}
		_ = set(conn, time.Now().Add(5*time.Millisecond))
		time.Sleep(30 * time.Millisecond)
		if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("write after the deadline fired = %v; want ErrDeadlineExceeded", err)
		}
		conn.Close()
	}
}

// TestPipeConnDeadlineSetWhileBlocked: a Read blocked with no deadline
// at all is woken by a deadline set afterwards, whether it lies in the
// future or the past, through either setter.
func TestPipeConnDeadlineSetWhileBlocked(t *testing.T) {
	f := NewFabric()
	l, err := NewQueue(f, mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, tc := range []struct {
		name string
		set  func(net.Conn, time.Time) error
		in   time.Duration
	}{
		{"SetReadDeadline future", net.Conn.SetReadDeadline, 20 * time.Millisecond},
		{"SetDeadline future", net.Conn.SetDeadline, 20 * time.Millisecond},
		{"SetReadDeadline past", net.Conn.SetReadDeadline, -time.Second},
	} {
		conn, err := dial(f)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := conn.Read(make([]byte, 1))
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let it block
		_ = tc.set(conn, time.Now().Add(tc.in))
		select {
		case err := <-done:
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Errorf("%s: blocked read = %v; want ErrDeadlineExceeded", tc.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: a deadline set while a Read was blocked never woke it", tc.name)
		}
		conn.Close()
	}
}
