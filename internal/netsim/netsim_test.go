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

func TestDialAndAccept(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen(mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
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
	l, err := f.Listen(mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f.SetUnreachable(mtaAddr.Addr(), true)
	if _, err := dial(f); !errors.Is(err, ErrConnRefused) {
		t.Errorf("unreachable dial: %v", err)
	}
	f.SetUnreachable(mtaAddr.Addr(), false)
	conn, err := dial(f)
	if err != nil {
		t.Fatalf("reachable again: %v", err)
	}
	conn.Close()
}

func TestAddressInUse(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen(mtaAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen(mtaAddr); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("second listen: %v", err)
	}
	l.Close()
	// Address is free again after close.
	l2, err := f.Listen(mtaAddr)
	if err != nil {
		t.Errorf("listen after close: %v", err)
	}
	l2.Close()
}

func TestListenerClose(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen(mtaAddr)
	go l.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrListenerClosed) {
		t.Errorf("accept after close: %v", err)
	}
	// Close must be idempotent.
	if err := l.Close(); err != nil {
		t.Error(err)
	}
}

func TestEphemeralPorts(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen(mtaAddr)
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
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
	l, _ := f.Listen(mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Accept()
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
	l, _ := f.Listen(mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Accept()
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
	l, _ := f.Listen(mtaAddr)
	defer l.Close()
	accepted := make(chan struct{})
	go func() {
		c, err := l.Accept()
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
	l, _ := f.Listen(mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Accept()
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
	l, _ := f.Listen(mtaAddr)
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
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
	l, _ := f.Listen(mtaAddr)
	defer l.Close()
	go func() {
		c, err := l.Accept()
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
	l, err := f.Listen(v6)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
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
