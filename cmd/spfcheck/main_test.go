package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
)

// zoneHandler serves a fixed TXT record per canonical name; unknown
// names get NXDOMAIN, and names in refuse get REFUSED (the quickest
// way to force temperror without waiting out timeouts).
type zoneHandler struct {
	txt    map[string]string
	refuse map[string]bool
}

func (h *zoneHandler) ServeDNS(w dns.ResponseWriter, r *dns.Request) {
	q := r.Msg.Question()
	name := dns.CanonicalName(q.Name)
	resp := new(dns.Message).SetReply(r.Msg)
	resp.Authoritative = true
	switch {
	case h.refuse[name]:
		resp.RCode = dns.RCodeRefused
	case h.txt[name] != "" && q.Type == dns.TypeTXT:
		resp.Answers = []dns.RR{{
			Name: name, Type: dns.TypeTXT, Class: dns.ClassINET, TTL: 300,
			Data: &dns.TXT{Strings: []string{h.txt[name]}},
		}}
	case h.txt[name] == "":
		resp.RCode = dns.RCodeNameError
	}
	_ = w.WriteMsg(resp)
}

func testDNS(t *testing.T) string {
	t.Helper()
	h := &zoneHandler{
		txt: map[string]string{
			"pass.example.": "v=spf1 ip4:203.0.113.0/24 -all",
			"fail.example.": "v=spf1 -all",
			"bad.example.":  "v=spf1 ip4:not-a-network -all",
		},
		refuse: map[string]bool{"flaky.example.": true},
	}
	srv := &dns.Server{Addr: "127.0.0.1:0", Handler: h}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return addr.String()
}

func runCmd(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSingleTupleExitCodes(t *testing.T) {
	server := testDNS(t)
	cases := []struct {
		name, ip, from string
		code           int
		result         string
	}{
		{"pass", "203.0.113.9", "a@pass.example", exitOK, "pass"},
		{"fail", "198.51.100.9", "a@pass.example", exitOK, "fail"},
		{"permerror", "203.0.113.9", "a@bad.example", exitPermError, "permerror"},
		{"temperror", "203.0.113.9", "a@flaky.example", exitTempError, "temperror"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, _ := runCmd(t,
				[]string{"-server", server, "-ip", tc.ip, "-from", tc.from}, "")
			if code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			if !strings.Contains(out, "result:       "+tc.result) {
				t.Errorf("stdout %q missing result %q", out, tc.result)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	server := testDNS(t)
	cases := [][]string{
		{},                  // no server
		{"-server", server}, // neither tuple nor input
		{"-server", server, "-input", "-", "-ip", "203.0.113.9"}, // mode mix
		{"-server", server, "-input", "/does/not/exist.jsonl"},   // unreadable input
		{"-bogus-flag"}, // unknown flag
		{"-server", server, "-ip", "203.0.113.9", "-from", "a@pass.example", "-timeout", "0"},
		{"-server", server, "-ip", "203.0.113.9", "-from", "a@pass.example", "-timeout", "-1s"},
		{"-server", server, "-input", "-", "-timeout", "0"},
	}
	for _, args := range cases {
		if code, _, _ := runCmd(t, args, ""); code != exitUsage {
			t.Errorf("run(%q) = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestBulkMode(t *testing.T) {
	server := testDNS(t)
	input := strings.Join([]string{
		`{"ip":"203.0.113.9","mail_from":"a@pass.example"}`,
		`{"ip":"198.51.100.9","mail_from":"b@pass.example"}`,
		`{"ip":"203.0.113.9","mail_from":"c@fail.example"}`,
	}, "\n")
	code, out, stderr := runCmd(t,
		[]string{"-server", server, "-input", "-", "-workers", "3"}, input)
	if code != exitOK {
		t.Fatalf("exit code %d, want %d (stderr: %s)", code, exitOK, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d output lines, want 3:\n%s", len(lines), out)
	}
	for want, frag := range map[int]string{0: `"result":"pass"`, 1: `"result":"fail"`, 2: `"result":"fail"`} {
		if !strings.Contains(lines[want], frag) {
			t.Errorf("line %d = %s, want %s", want, lines[want], frag)
		}
	}
	if !strings.Contains(stderr, "3 tuples") {
		t.Errorf("stderr %q missing throughput summary", stderr)
	}
}

func TestBulkExitCodePriority(t *testing.T) {
	server := testDNS(t)
	// temperror outranks permerror: transient failures mean the run
	// should be retried before trusting any permanent verdicts.
	code, _, _ := runCmd(t, []string{"-server", server, "-input", "-"},
		`{"ip":"203.0.113.9","mail_from":"a@flaky.example"}`+"\n"+
			`{"ip":"203.0.113.9","mail_from":"b@bad.example"}`)
	if code != exitTempError {
		t.Errorf("temperror+permerror run exited %d, want %d", code, exitTempError)
	}
	code, _, _ = runCmd(t, []string{"-server", server, "-input", "-"},
		`not json at all`)
	if code != exitPermError {
		t.Errorf("bad-input run exited %d, want %d", code, exitPermError)
	}
}
