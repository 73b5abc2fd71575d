package netsim

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	mtaAddr    = netip.MustParseAddrPort("203.0.113.25:25")
	clientAddr = netip.MustParseAddr("198.51.100.7")
)

// dial connects through f from clientAddr to mtaAddr.
func dial(f *Fabric) (net.Conn, error) {
	return f.BoundDialer(clientAddr, netip.Addr{}).DialContext(context.Background(), "tcp", mtaAddr.String())
}

// Queue is the server the stream tests register with Handle: it holds
// each handed-off connection until Next takes it, so a test drives the
// server end from its own goroutine. Close deregisters the address and
// closes every connection not taken. The netsim_test package's tests
// use it too.
type Queue struct {
	l     *Listener
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// NewQueue registers a Queue as the server of addr.
func NewQueue(f *Fabric, addr netip.AddrPort) (*Queue, error) {
	q := &Queue{conns: make(chan net.Conn), done: make(chan struct{})}
	l, err := f.Handle(addr, func(c net.Conn) {
		select {
		case q.conns <- c:
		case <-q.done:
			c.Close()
		}
	})
	if err != nil {
		return nil, err
	}
	q.l = l
	return q, nil
}

// Next waits for the next handed-off connection; it fails once Close
// has run.
func (q *Queue) Next() (net.Conn, error) {
	select {
	case c := <-q.conns:
		return c, nil
	case <-q.done:
		return nil, net.ErrClosed
	}
}

// Close deregisters the address and closes the connections not taken.
func (q *Queue) Close() error {
	q.once.Do(func() {
		q.l.Close()
		close(q.done)
	})
	return nil
}

func TestDialAndAccept(t *testing.T) {
	f := NewFabric()
	l, err := NewQueue(f, mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := l.Next()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		// The server must see the client's synthetic address.
		if got := conn.RemoteAddr().String(); !strings.HasPrefix(got, "198.51.100.7:") {
			done <- fmt.Errorf("server sees remote %s", got)
			return
		}
		if got := conn.LocalAddr().String(); got != "203.0.113.25:25" {
			done <- fmt.Errorf("server sees local %s", got)
			return
		}
		buf := make([]byte, 16)
		n, err := conn.Read(buf)
		if err != nil {
			done <- err
			return
		}
		_, err = conn.Write(append([]byte("echo:"), buf[:n]...))
		done <- err
	}()

	conn, err := dial(f)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := conn.RemoteAddr().String(); got != "203.0.113.25:25" {
		t.Errorf("client sees remote %s", got)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "echo:hello" {
		t.Errorf("echo = %q", buf[:n])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDialUnknownAddressRefused(t *testing.T) {
	f := NewFabric()
	_, err := dial(f)
	if !errors.Is(err, ErrConnRefused) {
		t.Errorf("err = %v", err)
	}
}

func TestUnreachable(t *testing.T) {
	f := NewFabric()
	l, err := NewQueue(f, mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f.SetFaults(mtaAddr.Addr(), &FaultProfile{DialFailure: 1})
	if _, err := dial(f); !errors.Is(err, ErrConnRefused) {
		t.Errorf("unreachable dial: %v", err)
	}
	f.SetFaults(mtaAddr.Addr(), nil)
	conn, err := dial(f)
	if err != nil {
		t.Fatalf("reachable again: %v", err)
	}
	conn.Close()
}

func TestAddressInUse(t *testing.T) {
	f := NewFabric()
	l, err := NewQueue(f, mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueue(f, mtaAddr); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("second registration: %v", err)
	}
	l.Close()
	// Address is free again after close.
	l2, err := NewQueue(f, mtaAddr)
	if err != nil {
		t.Fatalf("registration after close: %v", err)
	}
	defer l2.Close()
	// Closing the first registration again leaves the second in place.
	l.l.Close()
	conn, err := dial(f)
	if err != nil {
		t.Fatalf("dial after a stale Close: %v", err)
	}
	conn.Close()
}

func TestEphemeralPorts(t *testing.T) {
	f := NewFabric()
	l, _ := NewQueue(f, mtaAddr)
	defer l.Close()
	go func() {
		for {
			c, err := l.Next()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		conn, err := dial(f)
		if err != nil {
			t.Fatal(err)
		}
		local := conn.LocalAddr().String()
		if seen[local] {
			t.Errorf("ephemeral port reused: %s", local)
		}
		seen[local] = true
		conn.Close()
	}
}

func TestReadAfterPeerClose(t *testing.T) {
	f := NewFabric()
	l, _ := NewQueue(f, mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Next()
		if err != nil {
			return
		}
		_, _ = c.Write([]byte("parting words"))
		c.Close()
	}()
	conn, err := dial(f)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(data) != "parting words" {
		t.Errorf("data before EOF = %q", data)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	f := NewFabric()
	l, _ := NewQueue(f, mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Next()
		if err == nil {
			c.Close()
		}
	}()
	conn, err := dial(f)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Error("write on closed conn succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	f := NewFabric()
	l, _ := NewQueue(f, mtaAddr)
	defer l.Close()
	accepted := make(chan struct{})
	go func() {
		c, err := l.Next()
		if err == nil {
			defer c.Close()
			close(accepted)
			time.Sleep(time.Second)
		}
	}()
	conn, err := dial(f)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("read: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("deadline did not fire promptly")
	}
	// Expired deadline fails immediately.
	_ = conn.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("expired deadline read: %v", err)
	}
	// Clearing the deadline restores blocking reads.
	_ = conn.SetReadDeadline(time.Time{})
}

func TestLineProtocolOverFabric(t *testing.T) {
	// Exercise bufio-based line protocols (the SMTP usage pattern).
	f := NewFabric()
	l, _ := NewQueue(f, mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Next()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		bw := bufio.NewWriter(c)
		fmt.Fprintf(bw, "220 ready\r\n")
		bw.Flush()
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimSpace(line)
			if line == "QUIT" {
				fmt.Fprintf(bw, "221 bye\r\n")
				bw.Flush()
				return
			}
			fmt.Fprintf(bw, "250 %s ok\r\n", line)
			bw.Flush()
		}
	}()

	conn, err := dial(f)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	expect := func(prefix string) {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("got %q, want prefix %q", line, prefix)
		}
	}
	expect("220")
	fmt.Fprintf(conn, "EHLO client.example\r\n")
	expect("250 EHLO client.example ok")
	fmt.Fprintf(conn, "QUIT\r\n")
	expect("221")
}

func TestConcurrentConnections(t *testing.T) {
	f := NewFabric()
	l, _ := NewQueue(f, mtaAddr)
	defer l.Close()
	go func() {
		for {
			c, err := l.Next()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := dial(f)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			msg := fmt.Sprintf("payload-%d", i)
			if _, err := conn.Write([]byte(msg)); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(conn, buf); err != nil {
				errs <- err
				return
			}
			if string(buf) != msg {
				errs <- fmt.Errorf("echo mismatch: %q", buf)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDialContextStringAddress(t *testing.T) {
	f := NewFabric()
	l, _ := NewQueue(f, mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Next()
		if err == nil {
			c.Close()
		}
	}()
	conn, err := f.DialContext(context.Background(), "tcp", "203.0.113.25:25")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := f.DialContext(context.Background(), "tcp", "not-an-address"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestIPv6Fabric(t *testing.T) {
	f := NewFabric()
	v6 := netip.MustParseAddrPort("[2001:db8::25]:25")
	l, err := NewQueue(f, v6)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Next()
		if err == nil {
			c.Close()
		}
	}()
	conn, err := f.DialContext(context.Background(), "tcp", v6.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	local := netip.AddrPort(conn.LocalAddr().(simAddr))
	if !local.Addr().Is6() {
		t.Errorf("v6 dial used local %s", local)
	}
}
