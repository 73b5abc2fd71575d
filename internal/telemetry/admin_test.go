package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestAdmin(t *testing.T) (*AdminServer, *Health, *Counter) {
	t.Helper()
	reg := NewRegistry()
	var served Counter
	served.Add(3)
	reg.MustCounter("test_served_total", "Requests served.", &served)
	health := NewHealth()
	return &AdminServer{Registry: reg, Health: health}, health, &served
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, string(body)
}

func TestAdminMetrics(t *testing.T) {
	admin, _, _ := newTestAdmin(t)
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want exposition 0.0.4", ct)
	}
	if !strings.Contains(body, "test_served_total 3") {
		t.Errorf("missing sample:\n%s", body)
	}
}

func TestAdminHealthzFlips(t *testing.T) {
	admin, health, _ := newTestAdmin(t)
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no checks: status = %d, body %q", resp.StatusCode, body)
	}

	health.Register("disk", func() error { return nil })
	health.Register("querylog", func() error { return errors.New("42 entries dropped") })
	resp, body = get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing check: status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, "FAIL querylog: 42 entries dropped") {
		t.Errorf("missing failing check line:\n%s", body)
	}
	if !strings.Contains(body, "ok  disk") {
		t.Errorf("missing passing check line:\n%s", body)
	}
}

func TestAdminStatusz(t *testing.T) {
	admin, health, _ := newTestAdmin(t)
	health.Register("always", func() error { return nil })
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		Healthy bool `json:"healthy"`
		Health  []struct {
			Name string `json:"name"`
			OK   bool   `json:"ok"`
		} `json:"health"`
		Metrics []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Value float64 `json:"value"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	if !doc.Healthy || len(doc.Health) != 1 || doc.Health[0].Name != "always" {
		t.Errorf("health block wrong: %+v", doc)
	}
	found := false
	for _, m := range doc.Metrics {
		if m.Name == "test_served_total" && m.Type == "counter" &&
			len(m.Series) == 1 && m.Series[0].Value == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("test_served_total missing from statusz:\n%s", body)
	}
}

func TestAdminStartShutdown(t *testing.T) {
	admin, _, _ := newTestAdmin(t)
	admin.Addr = "127.0.0.1:0"
	addr, err := admin.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", resp.StatusCode)
	}
	if err := admin.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
}
