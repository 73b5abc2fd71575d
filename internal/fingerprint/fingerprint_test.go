package fingerprint

import (
	"strings"
	"testing"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/policy"
)

// entry builds a log entry for tests.
func entry(mta, test string, rest []string, typ dns.Type, at int, opts ...func(*dnsserver.LogEntry)) dnsserver.LogEntry {
	e := dnsserver.LogEntry{
		MTAID: mta, TestID: test, Rest: rest, Type: typ,
		Time: time.Unix(1_600_000_000, int64(at)*int64(time.Millisecond)),
	}
	for _, o := range opts {
		o(&e)
	}
	return e
}

func overTCP(e *dnsserver.LogEntry)  { e.Transport = "tcp" }
func overIPv6(e *dnsserver.LogEntry) { e.OverIPv6 = true }

// limitsNodes is t02's tree below its base, depth first, walked through
// the policy as served: the names a validator ignoring the lookup limit
// asks for.
var limitsNodes = func() []string {
	r := policy.Responders(&policy.Env{Suffix: "spf-test.example."})["t02"]
	var walk func(rest []string) []string
	walk = func(rest []string) (nodes []string) {
		q := &dnsserver.Query{Type: dns.TypeTXT, TestID: "t02", MTAID: "m1", Rest: rest}
		for _, rr := range r.Respond(q).Records {
			for _, term := range strings.Fields(rr.Data.(*dns.TXT).Joined()) {
				if target, ok := strings.CutPrefix(term, "include:"); ok {
					node, _, _ := strings.Cut(target, ".")
					nodes = append(append(nodes, node), walk([]string{node})...)
				}
			}
		}
		return nodes
	}
	return walk(nil)
}()

// serialMTALog fabricates a compliant, serial validator's footprint.
func serialMTALog(mta string) []dnsserver.LogEntry {
	es := []dnsserver.LogEntry{
		// t01: serial — A for foo arrives after l3.
		entry(mta, "t01", nil, dns.TypeTXT, 0),
		entry(mta, "t01", []string{"l1"}, dns.TypeTXT, 1),
		entry(mta, "t01", []string{"l2"}, dns.TypeTXT, 2),
		entry(mta, "t01", []string{"l3"}, dns.TypeTXT, 3),
		entry(mta, "t01", []string{"foo"}, dns.TypeA, 4),
		// t02: stops at 10 follow-ups.
		entry(mta, "t02", nil, dns.TypeTXT, 10),
	}
	for i, node := range limitsNodes[:10] {
		es = append(es, entry(mta, "t02", []string{node}, dns.TypeTXT, 11+i))
	}
	es = append(es,
		// t03: no helo lookup, only MAIL.
		entry(mta, "t03", nil, dns.TypeTXT, 30),
		// t04/t05: base fetched, no continuation.
		entry(mta, "t04", nil, dns.TypeTXT, 40),
		entry(mta, "t05", nil, dns.TypeTXT, 41),
		// t06: three void lookups (limit 2 + the violating third).
		entry(mta, "t06", nil, dns.TypeTXT, 50),
		entry(mta, "t06", []string{"v1"}, dns.TypeA, 51),
		entry(mta, "t06", []string{"v2"}, dns.TypeA, 52),
		entry(mta, "t06", []string{"v3"}, dns.TypeA, 53),
		// t07: no fallback.
		entry(mta, "t07", nil, dns.TypeTXT, 60),
		entry(mta, "t07", []string{"nomx"}, dns.TypeMX, 61),
		// t08: followed neither record.
		entry(mta, "t08", nil, dns.TypeTXT, 70),
		// t09: retried TCP.
		entry(mta, "t09", nil, dns.TypeTXT, 80),
		entry(mta, "t09", nil, dns.TypeTXT, 81, overTCP),
		// t10: retrieved over IPv6.
		entry(mta, "t10", nil, dns.TypeTXT, 90),
		entry(mta, "t10", []string{"l1"}, dns.TypeTXT, 91, overIPv6),
		// t11: ten MX-host lookups.
		entry(mta, "t11", nil, dns.TypeTXT, 100),
		entry(mta, "t11", []string{"mxfarm"}, dns.TypeMX, 101),
	)
	for i := 0; i < 10; i++ {
		es = append(es, entry(mta, "t11", []string{"mx0" + string(rune('0'+i))}, dns.TypeA, 102+i))
	}
	return es
}

// violatorMTALog fabricates a limit-ignoring validator's footprint.
func violatorMTALog(mta string) []dnsserver.LogEntry {
	es := []dnsserver.LogEntry{
		// t01: parallel — A before l3.
		entry(mta, "t01", nil, dns.TypeTXT, 0),
		entry(mta, "t01", []string{"foo"}, dns.TypeA, 1),
		entry(mta, "t01", []string{"l1"}, dns.TypeTXT, 2),
		entry(mta, "t01", []string{"l2"}, dns.TypeTXT, 3),
		entry(mta, "t01", []string{"l3"}, dns.TypeTXT, 4),
		entry(mta, "t02", nil, dns.TypeTXT, 10),
	}
	for i, node := range limitsNodes {
		es = append(es, entry(mta, "t02", []string{node}, dns.TypeTXT, 11+i))
	}
	es = append(es,
		entry(mta, "t06", nil, dns.TypeTXT, 60),
		entry(mta, "t06", []string{"v1"}, dns.TypeA, 61),
		entry(mta, "t06", []string{"v2"}, dns.TypeA, 62),
		entry(mta, "t06", []string{"v3"}, dns.TypeA, 63),
		entry(mta, "t06", []string{"v4"}, dns.TypeA, 64),
		entry(mta, "t06", []string{"v5"}, dns.TypeA, 65),
		entry(mta, "t07", nil, dns.TypeTXT, 70),
		entry(mta, "t07", []string{"nomx"}, dns.TypeMX, 71),
		entry(mta, "t07", []string{"nomx"}, dns.TypeA, 72),
		entry(mta, "t08", nil, dns.TypeTXT, 80),
		entry(mta, "t08", []string{"one"}, dns.TypeA, 81),
	)
	return es
}

func TestExtractSerialCompliant(t *testing.T) {
	o := Observe(serialMTALog("m1"))["m1"]
	if o == nil {
		t.Fatal("no observation")
	}
	v := o.Vector()
	checks := []struct {
		name string
		got  Trait
		want Trait
	}{
		{"SerialLookups", v.SerialLookups, True},
		{"RespectsLookupLimit", v.RespectsLookupLimit, True},
		{"RanFullTree", v.RanFullTree, False},
		{"ChecksHELO", v.ChecksHELO, False},
		{"TolerantMainSyntax", v.TolerantMainSyntax, False},
		{"TolerantChildSyntax", v.TolerantChildSyntax, False},
		{"RespectsVoidLimit", v.RespectsVoidLimit, True},
		{"MXFallbackA", v.MXFallbackA, False},
		{"FollowsOneOfMultiple", v.FollowsOneOfMultiple, False},
		{"TCPCapable", v.TCPCapable, True},
		{"IPv6Capable", v.IPv6Capable, True},
		{"RespectsMXLimit", v.RespectsMXLimit, True},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}

	// On virtual time l3, answered unshaped, and foo share an instant.
	log := serialMTALog("m1")
	for i, e := range log {
		if e.TestID == "t01" && len(e.Rest) == 1 && e.Rest[0] == "foo" {
			log[i].Time = log[i-1].Time
		}
	}
	if got := Observe(log)["m1"].Vector().SerialLookups; got != True {
		t.Errorf("SerialLookups with foo at l3's instant = %s, want %s", got, True)
	}
}

func TestExtractViolator(t *testing.T) {
	v := Observe(violatorMTALog("m2"))["m2"].Vector()
	if v.SerialLookups != False {
		t.Error("parallel validator classified serial")
	}
	if v.RespectsLookupLimit != False || v.RanFullTree != True {
		t.Errorf("limits: %s %s", v.RespectsLookupLimit, v.RanFullTree)
	}
	if v.RespectsVoidLimit != False {
		t.Error("void violator classified compliant")
	}
	if v.MXFallbackA != True {
		t.Error("fallback not detected")
	}
	if v.FollowsOneOfMultiple != True {
		t.Error("follow-one not detected")
	}
	// Policies never probed stay unknown.
	if v.TCPCapable != Unknown || v.IPv6Capable != Unknown || v.ChecksHELO != Unknown {
		t.Errorf("untested traits decided: %s", v.Signature())
	}
}

func TestSignatureAndDescribe(t *testing.T) {
	v := Observe(serialMTALog("m1"))["m1"].Vector()
	sig := v.Signature()
	if len(sig) != len(TraitNames) {
		t.Fatalf("signature %q length vs %d names", sig, len(TraitNames))
	}
	if sig != "yynnnnynnyyy" {
		t.Errorf("signature %q", sig)
	}
	d := Describe(v)
	if !strings.Contains(d, "m1") || !strings.Contains(d, "serial=y") {
		t.Errorf("describe %q", d)
	}
}

func TestClusters(t *testing.T) {
	var entries []dnsserver.LogEntry
	for _, id := range []string{"a", "b", "c"} {
		entries = append(entries, serialMTALog(id)...)
	}
	entries = append(entries, violatorMTALog("z")...)
	clusters := Clusters(Observe(entries).Vectors())
	if len(clusters) != 2 {
		t.Fatalf("%d clusters", len(clusters))
	}
	if len(clusters[0].MTAs) != 3 || clusters[0].MTAs[0] != "a" {
		t.Errorf("largest cluster %+v", clusters[0])
	}
	if len(clusters[1].MTAs) != 1 || clusters[1].MTAs[0] != "z" {
		t.Errorf("second cluster %+v", clusters[1])
	}
}

func TestDistance(t *testing.T) {
	a := &Vector{SerialLookups: True, TCPCapable: True, IPv6Capable: False}
	b := &Vector{SerialLookups: True, TCPCapable: False, IPv6Capable: Unknown}
	d, c := Distance(a, b)
	if d != 1 || c != 2 {
		t.Errorf("distance %d/%d, want 1/2", d, c)
	}
}

func TestClassify(t *testing.T) {
	compliant := Observe(serialMTALog("m1"))["m1"].Vector()
	matches := Classify(compliant, References())
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].Name != "strict-rfc7208" {
		t.Errorf("best match %s (score %.2f)", matches[0].Name, matches[0].Score())
	}
	if matches[0].Score() != 1 {
		t.Errorf("compliant score %.2f", matches[0].Score())
	}

	violator := Observe(violatorMTALog("m2"))["m2"].Vector()
	matches = Classify(violator, References())
	best := matches[0].Name
	if best != "limit-ignoring-legacy" && best != "parallel-prefetcher" {
		t.Errorf("violator best match %s", best)
	}
	// Empty vector matches nothing.
	if got := Classify(&Vector{}, References()); len(got) != 0 {
		t.Errorf("empty vector matched %d references", len(got))
	}
}

func TestMatchScoreZeroComparable(t *testing.T) {
	if (Match{}).Score() != 0 {
		t.Error("zero-comparable score")
	}
}

func TestTraitString(t *testing.T) {
	if Unknown.String() != "?" || True.String() != "y" || False.String() != "n" {
		t.Error("trait strings")
	}
}

func TestExtractIgnoresUnattributed(t *testing.T) {
	entries := []dnsserver.LogEntry{
		{MTAID: "", TestID: "t01"},
		{MTAID: "m1", TestID: ""},
	}
	if got := Observe(entries); len(got) != 0 {
		t.Errorf("unattributed entries produced observations: %v", got)
	}
}
