package authres

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatAndParseRoundTrip(t *testing.T) {
	h := &Header{
		AuthServID: "mx.receiver.example",
		Results: []Result{
			{Method: "spf", Value: "pass", Properties: map[string]string{"smtp.mailfrom": "user@sender.example"}},
			{Method: "dkim", Value: "pass", Properties: map[string]string{"header.d": "sender.example"}},
			{Method: "dmarc", Value: "pass", Properties: map[string]string{"header.from": "sender.example"}},
		},
	}
	value := Format(h)
	want := "mx.receiver.example; spf=pass smtp.mailfrom=user@sender.example; " +
		"dkim=pass header.d=sender.example; dmarc=pass header.from=sender.example"
	if value != want {
		t.Errorf("Format:\n got %q\nwant %q", value, want)
	}
	parsed, err := Parse(value)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.AuthServID != h.AuthServID || len(parsed.Results) != 3 {
		t.Fatalf("parsed: %+v", parsed)
	}
	spf := parsed.Lookup("spf")
	if spf == nil || spf.Value != "pass" || spf.Properties["smtp.mailfrom"] != "user@sender.example" {
		t.Errorf("spf: %+v", spf)
	}
	if parsed.Lookup("dmarc") == nil || parsed.Lookup("arc") != nil {
		t.Error("Lookup")
	}
}

func TestFormatNone(t *testing.T) {
	h := &Header{AuthServID: "mx.example"}
	if got := Format(h); got != "mx.example; none" {
		t.Errorf("Format none: %q", got)
	}
	parsed, err := Parse("mx.example; none")
	if err != nil || len(parsed.Results) != 0 {
		t.Errorf("parse none: %+v, %v", parsed, err)
	}
}

func TestReasonQuoting(t *testing.T) {
	h := &Header{
		AuthServID: "mx.example",
		Results: []Result{{
			Method: "dmarc", Value: "fail",
			Reason: "policy; reject requested",
		}},
	}
	value := Format(h)
	parsed, err := Parse(value)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Results[0].Reason != "policy; reject requested" {
		t.Errorf("reason: %q", parsed.Results[0].Reason)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"   ",
		"mx.example; =pass",
		"mx.example; spf",
		"mx.example; spf=pass orphantoken",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestCaseInsensitiveLookup(t *testing.T) {
	h, err := Parse("mx.example; SPF=pass")
	if err != nil {
		t.Fatal(err)
	}
	if h.Lookup("spf") == nil {
		t.Error("case-insensitive method lookup failed")
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Parse(string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMultiplePropertiesSorted(t *testing.T) {
	h := &Header{AuthServID: "mx", Results: []Result{{
		Method: "dkim", Value: "pass",
		Properties: map[string]string{
			"header.d": "d.example", "header.b": "abc", "header.a": "rsa-sha256",
		},
	}}}
	value := Format(h)
	// Deterministic property ordering.
	if !strings.Contains(value, "header.a=rsa-sha256 header.b=abc header.d=d.example") {
		t.Errorf("property order: %q", value)
	}
}
