package selftest

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dkim"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/policy"
	"sendervalid/internal/probe"
)

const zone = "selftest.dns-lab.example."

// rig is a full self-test deployment against one simulated MTA.
type rig struct {
	service *Service
	mta     *mtasim.MTA
}

func newRig(t *testing.T, profile mtasim.Profile) *rig {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	keyTXT, err := dkim.FormatKeyRecord(pub)
	if err != nil {
		t.Fatal(err)
	}
	senderAddr := netip.MustParseAddr("203.0.113.40")
	cfg := &policy.NotifyEmailConfig{
		Suffix:        zone,
		SenderV4:      senderAddr,
		DKIMSelector:  "st",
		DKIMKeyRecord: keyTXT,
		Contact:       "selftest@dns-lab.example",
		TimeScale:     0.001,
	}
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		Zones: []*dnsserver.Zone{{Suffix: zone, LabelDepth: 1, Default: cfg.Responder()}},
		Log:   log,
	}
	fabric := netsim.NewFabric()
	dnsAddr := netip.MustParseAddrPort("192.0.2.53:53")
	if err := srv.Serve(fabric, dnsAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	profile.ValidUsers = append(profile.ValidUsers, "operator")
	mtaAddr := netip.MustParseAddr("198.51.100.25")
	mta := mtasim.New(mtasim.Config{
		ID: "target", Hostname: "mx.target.example",
		Addr4: mtaAddr, Profile: profile, Fabric: fabric,
		DNSAddr: dnsAddr.String(), SPFTimeout: 10 * time.Second,
	})
	if err := mta.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mta.Close)

	service := &Service{
		Sender: &probe.Sender{
			Dialer:     fabric.BoundDialer(senderAddr, netip.Addr{}),
			Suffix:     zone,
			HeloDomain: "selftest.dns-lab.example",
			Signer:     &dkim.Signer{Selector: "st", Key: priv},
			Timeout:    5 * time.Second,
		},
		Log: log,
		Targets: func(ctx context.Context, domain string) ([]probe.Target, error) {
			if domain != "target.example" {
				return nil, fmt.Errorf("unknown domain %s", domain)
			}
			return []probe.Target{{Addr4: mtaAddr}}, nil
		},
		Settle: 50 * time.Millisecond,
	}
	return &rig{service: service, mta: mta}
}

func TestAssessFullValidator(t *testing.T) {
	r := newRig(t, mtasim.Profile{
		ValidatesSPF: true, ValidatesDKIM: true, ValidatesDMARC: true,
		Phase: mtasim.AtData, AcceptAnyUser: true,
	})
	a, err := r.service.Assess(context.Background(), "operator@target.example")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Delivered {
		t.Fatalf("delivery failed: %s", a.DeliveryError)
	}
	if !a.SPF || !a.SPFComplete || !a.DKIM || !a.DMARC {
		t.Errorf("assessment: %+v", a)
	}
	if !strings.Contains(a.Grade(), "full sender validation") {
		t.Errorf("grade %q", a.Grade())
	}
	report := Render(a)
	for _, want := range []string{"SPF", "DKIM", "DMARC", "accepted", a.FromDomain} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestAssessNonValidator(t *testing.T) {
	r := newRig(t, mtasim.Profile{AcceptAnyUser: true})
	a, err := r.service.Assess(context.Background(), "operator@target.example")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Delivered || a.SPF || a.DKIM || a.DMARC {
		t.Errorf("assessment: %+v", a)
	}
	if a.Grade() != "no sender validation observed" {
		t.Errorf("grade %q", a.Grade())
	}
}

func TestAssessPostDataValidator(t *testing.T) {
	// The assessment's settle window catches post-DATA validators the
	// probe experiments miss.
	r := newRig(t, mtasim.Profile{
		ValidatesSPF: true, Phase: mtasim.PostData, AcceptAnyUser: true,
	})
	a, err := r.service.Assess(context.Background(), "operator@target.example")
	if err != nil {
		t.Fatal(err)
	}
	if !a.SPF {
		t.Errorf("post-data validator not observed: %+v", a)
	}
}

func TestAssessPartialValidator(t *testing.T) {
	r := newRig(t, mtasim.Profile{
		ValidatesSPF: true, PartialSPF: true, Phase: mtasim.AtMail, AcceptAnyUser: true,
	})
	a, err := r.service.Assess(context.Background(), "operator@target.example")
	if err != nil {
		t.Fatal(err)
	}
	if !a.SPF || a.SPFComplete {
		t.Errorf("partial validator: %+v", a)
	}
	if !strings.Contains(a.Grade(), "does not finish") {
		t.Errorf("grade %q", a.Grade())
	}
}

func TestAssessUndeliverable(t *testing.T) {
	r := newRig(t, mtasim.Profile{}) // accepts only postmaster/operator
	a, err := r.service.Assess(context.Background(), "nonexistent-user@target.example")
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered {
		t.Error("delivery to unknown user succeeded")
	}
	if a.Grade() != "undeliverable" {
		t.Errorf("grade %q", a.Grade())
	}
}

func TestAssessErrors(t *testing.T) {
	r := newRig(t, mtasim.Profile{AcceptAnyUser: true})
	if _, err := r.service.Assess(context.Background(), "not-an-address"); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := r.service.Assess(context.Background(), "x@unknown.example"); err == nil {
		t.Error("unresolvable domain accepted")
	}
}

func TestSessionIDsUnique(t *testing.T) {
	s := &Service{}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := s.nextSessionID()
		if seen[id] {
			t.Fatalf("duplicate session id %s", id)
		}
		seen[id] = true
	}
}

func TestHTTPFormFlow(t *testing.T) {
	r := newRig(t, mtasim.Profile{
		ValidatesSPF: true, ValidatesDKIM: true, ValidatesDMARC: true,
		Phase: mtasim.AtData, AcceptAnyUser: true,
	})
	h := &Handler{Service: r.service}
	ts := httptest.NewServer(h)
	defer ts.Close()

	// The form page.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 || !strings.Contains(body, "<form") {
		t.Fatalf("form page: %d\n%s", resp.StatusCode, body)
	}

	// A successful HTML assessment.
	resp, err = http.PostForm(ts.URL+"/assess", url.Values{"address": {"operator@target.example"}})
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != 200 || !strings.Contains(body, "full sender validation") {
		t.Fatalf("assess page: %d\n%s", resp.StatusCode, body)
	}

	// The JSON API.
	resp, err = http.PostForm(ts.URL+"/api/assess", url.Values{"address": {"operator@target.example"}})
	if err != nil {
		t.Fatal(err)
	}
	var a Assessment
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !a.SPF || !a.DKIM || !a.DMARC || !a.Delivered {
		t.Errorf("json assessment: %+v", a)
	}

	// Error paths.
	resp, _ = http.PostForm(ts.URL+"/assess", url.Values{"address": {"garbage"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad address status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.PostForm(ts.URL+"/assess", url.Values{"address": {"x@unknown.example"}})
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unresolvable status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestGradeCoverage(t *testing.T) {
	cases := []struct {
		a    Assessment
		want string
	}{
		{Assessment{Delivered: true, SPF: true, DKIM: true}, "does not enforce"},
		{Assessment{Delivered: true, SPF: true, SPFComplete: true}, "SPF only"},
		{Assessment{Delivered: true, DKIM: true}, "DKIM only"},
		{Assessment{Delivered: true, DMARC: true}, "non-compliant"},
	}
	for _, c := range cases {
		if got := c.a.Grade(); !strings.Contains(got, c.want) {
			t.Errorf("grade %q lacks %q", got, c.want)
		}
	}
}
