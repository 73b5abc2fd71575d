package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dnsserver"
)

func TestLintRecord(t *testing.T) {
	elevenIncludes := "v=spf1 " + strings.Repeat("include:x.example ", 11) + "-all"
	for _, tc := range []struct {
		name, record string
		code         int
		stdout       string
	}{
		{"pass-all", "v=spf1 +all", 1,
			"record:  v=spf1 +all\n" +
				"lookups: 0 (limit 10)\n" +
				"  error[pass-all] all: +all authorizes the whole Internet to send for this domain\n"},
		{"clean", "v=spf1 ip4:192.0.2.0/24 -all", 0,
			"record:  v=spf1 ip4:192.0.2.0/24 -all\n" +
				"lookups: 0 (limit 10)\n" +
				"clean: no findings\n"},
		{"eleven-includes", elevenIncludes, 1,
			"record:  " + elevenIncludes + "\n" +
				"lookups: 11 (limit 10)\n" +
				"  error[lookup-limit] policy itself requires 11 DNS-querying terms; the RFC 7208 limit is 10\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), []string{"-record", tc.record}, nil, &stdout, &stderr)
			if code != tc.code || stdout.String() != tc.stdout {
				t.Errorf("exit %d, stdout:\n%swant exit %d, stdout:\n%s", code, stdout.String(), tc.code, tc.stdout)
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr: %s", stderr.String())
			}
		})
	}
}

// TestLintDeployment lints a published deployment through a real DNS
// server: the include chain is followed and the dangling leaf reported.
func TestLintDeployment(t *testing.T) {
	zone := dnsserver.NewStatic().
		SPF("corp.example", "v=spf1 include:spf.corp.example -all").
		SPF("spf.corp.example", "v=spf1 include:gone.corp.example ~all")
	srv := &dnsserver.Server{Zones: []*dnsserver.Zone{{Suffix: "corp.example.", LabelDepth: 1, Default: zone}}}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-domain", "corp.example", "-server", addr.String()}, nil, &stdout, &stderr)
	out := stdout.String()
	if code != 1 || !strings.HasPrefix(out, "record:  v=spf1 include:spf.corp.example -all\nlookups: 2 (limit 10)\n") ||
		!strings.Contains(out, "gone.corp.example") {
		t.Errorf("exit %d, stdout:\n%sstderr: %s", code, out, stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                          // nothing to lint
		{"-domain", "corp.example"}, // -domain without -server
		{"-definitely-not-a-flag"},  // unknown flag
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), args, nil, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-record") {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want 2 and the usage text", args, code, stdout.String(), stderr.String())
		}
	}
}
