package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sendervalid/internal/cmdtest"
	"sendervalid/internal/resolver"
)

// authdns is one in-process run of the command. Its output buffers are
// read while run is still writing — the whole point of the test is
// racing shutdown against serving under -race.
type authdns struct {
	stdout, stderr     *cmdtest.Buffer
	stop               context.CancelFunc // what SIGINT/SIGTERM does in main
	exit               chan int
	dnsAddr, adminAddr string
}

// startAuthdns runs the command on ephemeral ports with unshaped
// responses and waits until it has announced the addresses it serves
// on: the DNS one always, the admin plane's with -metrics-addr.
func startAuthdns(t *testing.T, args ...string) *authdns {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	a := &authdns{
		stdout: new(cmdtest.Buffer), stderr: new(cmdtest.Buffer),
		stop: cancel, exit: make(chan int, 1),
	}
	go func() {
		a.exit <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-timescale", "0"}, args...),
			nil, a.stdout, a.stderr)
	}()
	a.dnsAddr = cmdtest.WaitFor(t, a.stdout, `serving .* on (127\.0\.0\.1:\d+)`)[1]
	for _, arg := range args {
		if arg == "-metrics-addr" {
			a.adminAddr = cmdtest.WaitFor(t, a.stdout, `admin plane on http://(127\.0\.0\.1:\d+)/metrics`)[1]
		}
	}
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
	// Send real queries so the serving-path counters move.
	res := resolver.New(resolver.Config{Server: a.dnsAddr})
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
	// shutdown/append race. Each lookup names a new MTA so the
	// resolver's cache cannot answer it and the query reaches the wire.
	raceCtx, raceCancel := context.WithCancel(context.Background())
	defer raceCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 3; raceCtx.Err() == nil; i++ {
			qctx, qcancel := context.WithTimeout(raceCtx, 200*time.Millisecond)
			_, _ = res.LookupTXT(qctx, fmt.Sprintf("t03.mta%05d.spf-test.dns-lab.example", i))
			qcancel()
		}
	}()

	a.stop()
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
	res := resolver.New(resolver.Config{Server: a.dnsAddr})
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
	a.stop()
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
