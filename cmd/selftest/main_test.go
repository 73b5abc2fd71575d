package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"time"

	"sendervalid/internal/cmdtest"
	"sendervalid/internal/leaktest"
	"sendervalid/internal/selftest"
)

// TestServeAssessShutdown runs the command on an ephemeral port,
// assesses one demo mailbox over HTTP, and cancels ctx — what SIGINT
// does in main: run must return 0 and leave nothing running.
func TestServeAssessShutdown(t *testing.T) {
	defer leaktest.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout, stderr := new(cmdtest.Buffer), new(cmdtest.Buffer)
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, []string{"-listen", "127.0.0.1:0"}, nil, stdout, stderr) }()
	base := cmdtest.WaitFor(t, stdout, `serving on (http://127\.0\.0\.1:\d+) `)[1]

	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.PostForm(base+"/api/assess", url.Values{"address": {"operator@full.example"}})
	if err != nil {
		t.Fatal(err)
	}
	var a selftest.Assessment
	err = json.NewDecoder(resp.Body).Decode(&a)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("assess: status %d, decode error %v", resp.StatusCode, err)
	}
	if !a.Delivered || !a.SPF || !a.SPFComplete || !a.DKIM || !a.DMARC {
		t.Errorf("full.example validates everything, assessment says %+v", a)
	}

	client.CloseIdleConnections()
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

func TestUsageError(t *testing.T) {
	stdout, stderr := new(cmdtest.Buffer), new(cmdtest.Buffer)
	if code := run(context.Background(), []string{"-definitely-not-a-flag"}, nil, stdout, stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
