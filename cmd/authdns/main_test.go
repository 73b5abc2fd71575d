package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/resolver"
)

// syncBuffer makes the output buffers safe to read while run is still
// writing — the whole point of the test is racing shutdown against
// serving under -race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// authdns is one in-process run of the command.
type authdns struct {
	stdout, stderr     *syncBuffer
	stop               chan os.Signal
	exit               chan int
	dnsAddr, adminAddr string
}

// startAuthdns runs the command on ephemeral ports with unshaped
// responses and waits until it serves.
func startAuthdns(t *testing.T, args ...string) *authdns {
	t.Helper()
	a := &authdns{
		stdout: new(syncBuffer), stderr: new(syncBuffer),
		stop: make(chan os.Signal, 1), exit: make(chan int, 1),
	}
	ready := make(chan string, 1)
	go func() {
		a.exit <- run(append([]string{"-addr", "127.0.0.1:0", "-timescale", "0"}, args...),
			a.stdout, a.stderr, a.stop, ready)
	}()
	select {
	case a.adminAddr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("run did not start; stderr: %s", a.stderr.String())
	}
	m := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`).FindStringSubmatch(a.stdout.String())
	if m == nil {
		t.Fatalf("no DNS bound address in output: %q", a.stdout.String())
	}
	a.dnsAddr = m[1]
	return a
}

// TestRunServeShutdown drives the full authdns lifecycle in-process:
// start, serve real queries, scrape the admin plane, then deliver a
// simulated SIGTERM while traffic may still be in flight. Run with
// -race this doubles as the shutdown-counter race regression test —
// the old main closed the query log while timed-out handlers could
// still append, and read counters without synchronization.
func TestRunServeShutdown(t *testing.T) {
	a := startAuthdns(t, "-quiet", "-metrics-addr", "127.0.0.1:0")
	if a.adminAddr == "" {
		t.Fatal("no admin address despite -metrics-addr")
	}

	// Send real queries so the serving-path counters move.
	res := resolver.New(resolver.Config{Server: a.dnsAddr, DisableCache: true})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, name := range []string{
		"t01.mta00001.spf-test.dns-lab.example",
		"t02.mta00002.spf-test.dns-lab.example",
	} {
		if _, err := res.LookupTXT(ctx, name); err != nil {
			t.Fatalf("query %s: %v", name, err)
		}
	}

	body := httpGet(t, "http://"+a.adminAddr+"/metrics")
	for _, family := range []string{
		"dns_queries_total",
		"dns_serve_duration_seconds_bucket",
		"dnsserver_queries_total",
		"dnsserver_log_appended_total",
		"go_goroutines",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(body, `dnsserver_queries_total{policy="t01"} 1`) {
		t.Errorf("per-policy counter missing or wrong:\n%s", body)
	}

	resp, err := http.Get("http://" + a.adminAddr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}

	// Keep traffic flowing while the signal lands, to exercise the
	// shutdown/append race.
	raceCtx, raceCancel := context.WithCancel(context.Background())
	defer raceCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for raceCtx.Err() == nil {
			qctx, qcancel := context.WithTimeout(raceCtx, 200*time.Millisecond)
			_, _ = res.LookupTXT(qctx, "t03.mta00003.spf-test.dns-lab.example")
			qcancel()
		}
	}()

	a.stop <- os.Interrupt
	select {
	case code := <-a.exit:
		if code != 0 {
			t.Fatalf("run exited %d; stderr: %s", code, a.stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after signal")
	}
	raceCancel()
	wg.Wait()

	out := a.stdout.String()
	if !strings.Contains(out, "final counters:") {
		t.Errorf("no shutdown summary in output: %q", out)
	}
	if !strings.Contains(out, "dns_queries_total") {
		t.Errorf("shutdown summary lacks query counters: %q", out)
	}
}

// TestRunPrintsAttributedLines serves a few queries without -quiet and
// expects exactly one attributed line per query on stdout — printed by
// the log's drain goroutine, so all are out once run has returned.
func TestRunPrintsAttributedLines(t *testing.T) {
	a := startAuthdns(t)
	res := resolver.New(resolver.Config{Server: a.dnsAddr, DisableCache: true})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	queries := []struct{ test, mta string }{
		{"t01", "mta00001"}, {"t02", "mta00002"}, {"t01", "mta00003"},
	}
	for _, q := range queries {
		name := q.test + "." + q.mta + ".spf-test.dns-lab.example"
		if _, err := res.LookupTXT(ctx, name); err != nil {
			t.Fatalf("query %s: %v", name, err)
		}
	}
	a.stop <- os.Interrupt
	select {
	case code := <-a.exit:
		if code != 0 {
			t.Fatalf("run exited %d; stderr: %s", code, a.stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after signal")
	}
	out := a.stdout.String()
	for _, q := range queries {
		line := regexp.MustCompile(fmt.Sprintf(
			`(?m)^\d\d:\d\d:\d\d\.\d{3} udp  TXT   test=%-4s mta=%-8s %s\.%s\.spf-test\.dns-lab\.example\.$`,
			q.test, q.mta, q.test, q.mta))
		if n := len(line.FindAllString(out, -1)); n != 1 {
			t.Errorf("%d lines for (%s, %s), want 1:\n%s", n, q.test, q.mta, out)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
