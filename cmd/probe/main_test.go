package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"strings"
	"testing"

	"sendervalid/internal/smtp"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(context.Background(), args, nil, &out, &errw)
	return code, out.String(), errw.String()
}

// TestListCatalog pins `probe -list` byte for byte: one line per test
// policy, 39 of them.
func TestListCatalog(t *testing.T) {
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd("-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if out != string(want) {
		t.Errorf("-list output differs from testdata/list.golden:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 39 {
		t.Errorf("%d catalog lines, want 39", n)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                         // no -target
		{"-target", "not-an-addr"}, // unparseable target
		{"-definitely-not-a-flag"}, // unknown flag
		{"-target", "192.0.2.25:25", "-sleep", "soon"}, // bad duration
		// A test ID outside the catalog; the closed loopback port keeps
		// a command that does not refuse it off the network.
		{"-target", "127.0.0.1:1", "-tests", "t01,t99"},
		{"-target", "127.0.0.1:1", "-tests", "t01,"},
	} {
		if code, out, _ := runCmd(args...); code != 2 || out != "" {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and nothing probed", args, code, out)
		}
	}
}

// TestProbeOverTCP points the command at a real TCP listener on a
// non-25 port (so the port-rewriting dialer is on the path): the probe
// walks EHLO → MAIL → RCPT → DATA and disconnects.
func TestProbeOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var froms []string
	mta := &smtp.Server{Hostname: "mx.test.example", Handler: smtp.Handler{
		OnMail: func(s *smtp.Session, from string) *smtp.Reply {
			froms = append(froms, from)
			return nil
		},
	}}
	go mta.Serve(ln)
	defer mta.Close()

	code, out, stderr := runCmd("-target", ln.Addr().String(), "-mta-id", "m0042", "-tests", "t01,t12")
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	if !strings.HasSuffix(out, "2 of 2 probes reached DATA\n") {
		t.Errorf("output:\n%s", out)
	}
	mta.Close() // sessions are over: froms is safe to read
	want := []string{
		"spf-test@t01.m0042.spf-test.dns-lab.example",
		"spf-test@t12.m0042.spf-test.dns-lab.example",
	}
	if strings.Join(froms, " ") != strings.Join(want, " ") {
		t.Errorf("MAIL FROM sequence %q, want %q", froms, want)
	}
}
