// Package policy defines the study's SPF test-policy catalog
// (paper §4.3.2): 39 policies, each probing one specific validator
// behaviour. A policy is realized as a dnsserver.Responder that
// synthesizes the policy's DNS view for any (testid, mtaid) pair, plus
// metadata describing what the policy measures. The paper's results
// discuss a subset of the catalog (§6–§7); the rest exercise adjacent
// behaviours and are retained for the fingerprinting future work the
// paper proposes (§8).
package policy

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
)

// Unaffiliated is the address the NotifyMX/TwoWeekMX policies resolve
// "a" mechanisms to: a documentation address that never matches a
// probe client, so validation is designed to fail (paper §7.1).
var Unaffiliated = netip.MustParseAddr("192.0.2.1")

// UnaffiliatedV6 is the IPv6 counterpart.
var UnaffiliatedV6 = netip.MustParseAddr("2001:db8:0:feed::1")

// Test identifies one test policy.
type Test struct {
	// ID is the policy's label in From domains ("t01"…"t39").
	ID string
	// Name is a short mnemonic.
	Name string
	// Description states the behaviour the policy elicits.
	Description string
	// Section cites where the paper reports on it, or "".
	Section string
	// Build creates the responder serving this policy's names.
	Build func(env *Env) dnsserver.Responder
}

// Env carries the deployment context a policy needs to synthesize
// answers.
type Env struct {
	// Suffix is the zone apex the policy's names live under.
	Suffix string
	// TimeScale multiplies the paper's shaping delays (100 ms, 800 ms),
	// letting tests and benches run the same logic at microsecond
	// scale. 1.0 reproduces the paper's timing.
	TimeScale float64
	// TTL for synthesized records.
	TTL uint32
}

func (e *Env) scale(d time.Duration) time.Duration {
	if e.TimeScale == 0 {
		return d
	}
	return time.Duration(float64(d) * e.TimeScale)
}

func (e *Env) ttl() uint32 {
	if e.TTL == 0 {
		return 60
	}
	return e.TTL
}

// txt builds a TXT response.
func (e *Env) txt(q *dnsserver.Query, payload string) dnsserver.Response {
	return dnsserver.Response{Records: []dns.RR{dnsserver.TXTRecord(q.Name, payload, e.ttl())}}
}

// addr builds an A or AAAA response matching the query type.
func (e *Env) addr(q *dnsserver.Query, v4 netip.Addr, v6 netip.Addr) dnsserver.Response {
	switch q.Type {
	case dns.TypeA:
		if !v4.IsValid() {
			return dnsserver.Response{}
		}
		return dnsserver.Response{Records: []dns.RR{{
			Name: q.Name, Type: dns.TypeA, Class: dns.ClassINET, TTL: e.ttl(),
			Data: &dns.A{Addr: v4},
		}}}
	case dns.TypeAAAA:
		if !v6.IsValid() {
			return dnsserver.Response{}
		}
		return dnsserver.Response{Records: []dns.RR{{
			Name: q.Name, Type: dns.TypeAAAA, Class: dns.ClassINET, TTL: e.ttl(),
			Data: &dns.AAAA{Addr: v6},
		}}}
	}
	return dnsserver.Response{}
}

// sub returns the follow-up name with extra labels prepended to the
// query's identity base.
func (e *Env) sub(q *dnsserver.Query, extra ...string) string {
	return dnsserver.Rejoin(q, e.Suffix, extra...)
}

// restIs reports whether the query's rest labels equal the given
// sequence (leftmost first).
func restIs(q *dnsserver.Query, labels ...string) bool {
	if len(q.Rest) != len(labels) {
		return false
	}
	for i := range labels {
		if q.Rest[i] != labels[i] {
			return false
		}
	}
	return true
}

// Catalog returns all 39 test policies in ID order.
func Catalog() []Test {
	tests := []Test{
		{
			ID: "t01", Name: "serial-vs-parallel", Section: "§7.1",
			Description: "include chain (100 ms shaped) before an a mechanism distinguishes serial from parallel lookup scheduling",
			Build:       buildSerialParallel,
		},
		{
			ID: "t02", Name: "lookup-limits", Section: "§7.2",
			Description: "30 include mechanisms across 5 levels (46 lookups, 800 ms shaped) probe the 10-lookup limit and the 20 s timeout",
			Build:       buildLookupLimits,
		},
		{
			ID: "t03", Name: "helo-check", Section: "§7.3",
			Description: "a -all policy at the HELO domain detects validators that check the HELO identity",
			Build:       buildHeloCheck,
		},
		{
			ID: "t04", Name: "syntax-error-main", Section: "§7.3",
			Description: "an ipv4: typo in the main policy; lookups right of the error reveal non-compliant continuation",
			Build:       buildSyntaxErrorMain,
		},
		{
			ID: "t05", Name: "syntax-error-child", Section: "§7.3",
			Description: "an ipv4: typo inside an included policy; parent-policy lookups after the include reveal continuation",
			Build:       buildSyntaxErrorChild,
		},
		{
			ID: "t06", Name: "void-lookups", Section: "§7.3",
			Description: "five a mechanisms that resolve to nothing probe the two-void-lookup limit",
			Build:       buildVoidLookups,
		},
		{
			ID: "t07", Name: "mx-fallback-a", Section: "§7.3",
			Description: "an mx mechanism whose domain has no MX records; A/AAAA follow-ups violate RFC 7208 §5.4",
			Build:       buildMXFallback,
		},
		{
			ID: "t08", Name: "multiple-records", Section: "§7.3",
			Description: "two SPF TXT records, each with a distinct a name, reveal whether validators permerror, follow one, or follow both",
			Build:       buildMultipleRecords,
		},
		{
			ID: "t09", Name: "tcp-fallback", Section: "§7.3",
			Description: "truncated UDP responses force policy retrieval over TCP",
			Build:       buildTCPFallback,
		},
		{
			ID: "t10", Name: "ipv6-only", Section: "§7.3",
			Description: "follow-up names served only at the IPv6 endpoint test resolver IPv6 capability",
			Build:       buildIPv6Only,
		},
		{
			ID: "t11", Name: "mx-address-limit", Section: "§7.3",
			Description: "an mx mechanism yielding 20 MX records probes the 10-address-lookup limit",
			Build:       buildMXLimit,
		},
		{
			ID: "t12", Name: "baseline", Section: "§6",
			Description: "a plain failing policy; the TXT lookup alone marks the MTA as SPF-validating",
			Build:       buildBaseline,
		},
	}
	tests = append(tests, extendedCatalog()...)
	return tests
}

// Responders builds the dnsserver responder registry for the catalog.
func Responders(env *Env) map[string]dnsserver.Responder {
	out := make(map[string]dnsserver.Responder)
	for _, t := range Catalog() {
		out[t.ID] = t.Build(env)
	}
	return out
}

// --- t01: serial vs parallel (paper Figure 3) ---

func buildSerialParallel(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		switch {
		case q.Type == dns.TypeTXT && len(q.Rest) == 0:
			return env.txt(q, fmt.Sprintf("v=spf1 include:%s a:%s -all",
				env.sub(q, "l1"), env.sub(q, "foo")))
		case q.Type == dns.TypeTXT && restIs(q, "l1"):
			r := env.txt(q, "v=spf1 include:"+env.sub(q, "l2")+" ?all")
			r.Delay = env.scale(100 * time.Millisecond)
			return r
		case q.Type == dns.TypeTXT && restIs(q, "l2"):
			r := env.txt(q, "v=spf1 include:"+env.sub(q, "l3")+" ?all")
			r.Delay = env.scale(100 * time.Millisecond)
			return r
		case q.Type == dns.TypeTXT && restIs(q, "l3"):
			return env.txt(q, "v=spf1 ?all")
		case restIs(q, "foo"):
			return env.addr(q, Unaffiliated, UnaffiliatedV6)
		}
		return dnsserver.Response{}
	})
}

// --- t02: lookup limits (paper Figure 4) ---
//
// The policy tree has five levels. Each L1 policy includes further
// policies so a fully violating validator issues 46 lookups total. We
// reproduce the paper's structure: evaluation order is depth-first,
// and every L1–L5 response is delayed 800 ms.

// limitsChildren maps a node label to its ordered include children.
// Node labels encode the path, e.g. "n1", "n1-2".
var limitsChildren = buildLimitsTree()

// buildLimitsTree constructs a 46-node include tree with 5 levels,
// matching Figure 4's box count (46 policies under L0).
func buildLimitsTree() map[string][]string {
	children := make(map[string][]string)
	// L0 has 8 children; the first six each root a 6-node subtree
	// (1+2+3 arrangement down to level 5), the last two are leaves.
	// Total: 8 + 6*5 + 8 = 46 nodes. We keep the exact counts the
	// figure implies: 46 queries after the base L0 lookup.
	var l1 []string
	for i := 1; i <= 8; i++ {
		l1 = append(l1, fmt.Sprintf("n%d", i))
	}
	children["root"] = l1
	// Six subtrees of depth 4 under the first six L1 nodes: each node
	// chain n_i -> n_i-1 -> n_i-1-1 -> n_i-1-1-1 plus siblings to
	// total 38 descendant nodes across the tree.
	total := 8
	for i := 1; i <= 6 && total < 46; i++ {
		parent := fmt.Sprintf("n%d", i)
		for j := 1; j <= 2 && total < 46; j++ {
			child := fmt.Sprintf("%s-%d", parent, j)
			children[parent] = append(children[parent], child)
			total++
			for k := 1; k <= 2 && total < 46; k++ {
				grand := fmt.Sprintf("%s-%d", child, k)
				children[child] = append(children[child], grand)
				total++
				if total < 46 {
					great := fmt.Sprintf("%s-%d", grand, 1)
					children[grand] = append(children[grand], great)
					total++
				}
			}
		}
	}
	return children
}

// LimitsTreeSize returns the number of non-root policies in the t02
// tree (the maximum lookups after the base query).
func LimitsTreeSize() int {
	n := 0
	for _, c := range limitsChildren {
		n += len(c)
	}
	return n
}

// LimitsDelay is the paper's per-response delay for t02 names.
const LimitsDelay = 800 * time.Millisecond

func buildLookupLimits(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		if q.Type != dns.TypeTXT {
			return dnsserver.Response{}
		}
		node := "root"
		delay := time.Duration(0)
		if len(q.Rest) == 1 {
			node = q.Rest[0]
			delay = env.scale(LimitsDelay)
		} else if len(q.Rest) > 1 {
			return dnsserver.Response{RCode: dns.RCodeNameError}
		}
		kids, ok := limitsChildren[node]
		if !ok && node != "root" {
			if !strings.HasPrefix(node, "n") {
				return dnsserver.Response{RCode: dns.RCodeNameError}
			}
			// Leaf policy.
			r := env.txt(q, "v=spf1 ?all")
			r.Delay = delay
			return r
		}
		var sb strings.Builder
		sb.WriteString("v=spf1")
		for _, kid := range kids {
			sb.WriteString(" include:" + env.sub(q, kid))
		}
		sb.WriteString(" ?all")
		r := env.txt(q, sb.String())
		r.Delay = delay
		return r
	})
}

// --- t03: HELO check ---
//
// The probe sends HELO helo.t03.<mtaid>.<suffix>; that name publishes
// a bare -all policy. The MAIL domain t03.<mtaid>.<suffix> publishes a
// policy whose evaluation requires one follow-up, so we can observe
// MAIL evaluation distinctly from the HELO lookup.

func buildHeloCheck(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		switch {
		case q.Type == dns.TypeTXT && restIs(q, "helo"):
			return env.txt(q, "v=spf1 -all")
		case q.Type == dns.TypeTXT && len(q.Rest) == 0:
			return env.txt(q, "v=spf1 a:"+env.sub(q, "mail")+" -all")
		case restIs(q, "mail"):
			return env.addr(q, Unaffiliated, UnaffiliatedV6)
		}
		return dnsserver.Response{}
	})
}

// --- t04/t05: syntax errors ---

func buildSyntaxErrorMain(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		switch {
		case q.Type == dns.TypeTXT && len(q.Rest) == 0:
			// "ipv4" instead of "ip4" — the paper's deliberate typo.
			return env.txt(q, fmt.Sprintf("v=spf1 ipv4:%s a:%s ?all",
				Unaffiliated, env.sub(q, "after")))
		case restIs(q, "after"):
			return env.addr(q, Unaffiliated, UnaffiliatedV6)
		}
		return dnsserver.Response{}
	})
}

func buildSyntaxErrorChild(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		switch {
		case q.Type == dns.TypeTXT && len(q.Rest) == 0:
			return env.txt(q, fmt.Sprintf("v=spf1 include:%s a:%s ?all",
				env.sub(q, "l1"), env.sub(q, "cont")))
		case q.Type == dns.TypeTXT && restIs(q, "l1"):
			return env.txt(q, fmt.Sprintf("v=spf1 ipv4:%s ?all", Unaffiliated))
		case restIs(q, "cont"):
			return env.addr(q, Unaffiliated, UnaffiliatedV6)
		}
		return dnsserver.Response{}
	})
}

// --- t06: void lookups ---

func buildVoidLookups(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		if q.Type == dns.TypeTXT && len(q.Rest) == 0 {
			var sb strings.Builder
			sb.WriteString("v=spf1")
			for i := 1; i <= 5; i++ {
				fmt.Fprintf(&sb, " a:%s", env.sub(q, fmt.Sprintf("v%d", i)))
			}
			sb.WriteString(" ?all")
			return env.txt(q, sb.String())
		}
		// Every vN name exists but has no address records: NOERROR with
		// an empty answer — a textbook void lookup.
		return dnsserver.Response{}
	})
}

// --- t07: mx fallback ---

func buildMXFallback(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		if q.Type == dns.TypeTXT && len(q.Rest) == 0 {
			return env.txt(q, "v=spf1 mx:"+env.sub(q, "nomx")+" ?all")
		}
		// nomx has neither MX nor address records.
		return dnsserver.Response{}
	})
}

// --- t08: multiple records ---

func buildMultipleRecords(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		switch {
		case q.Type == dns.TypeTXT && len(q.Rest) == 0:
			return dnsserver.Response{Records: []dns.RR{
				dnsserver.TXTRecord(q.Name, "v=spf1 a:"+env.sub(q, "one")+" ?all", env.ttl()),
				dnsserver.TXTRecord(q.Name, "v=spf1 a:"+env.sub(q, "two")+" ?all", env.ttl()),
			}}
		case restIs(q, "one"), restIs(q, "two"):
			return env.addr(q, Unaffiliated, UnaffiliatedV6)
		}
		return dnsserver.Response{}
	})
}

// --- t09: TCP fallback ---

func buildTCPFallback(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		if q.Type == dns.TypeTXT && len(q.Rest) == 0 {
			r := env.txt(q, "v=spf1 a:"+env.sub(q, "tcponly")+" ?all")
			r.TruncateUDP = true
			return r
		}
		if restIs(q, "tcponly") {
			r := env.addr(q, Unaffiliated, UnaffiliatedV6)
			r.TruncateUDP = true
			return r
		}
		return dnsserver.Response{}
	})
}

// --- t10: IPv6-only ---

func buildIPv6Only(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		if q.Type == dns.TypeTXT && len(q.Rest) == 0 {
			// The base policy is served normally; only the follow-up
			// names sit behind IPv6-only servers.
			return env.txt(q, "v=spf1 include:"+env.sub(q, "l1")+" ?all")
		}
		if q.Type == dns.TypeTXT && restIs(q, "l1") {
			r := env.txt(q, "v=spf1 ?all")
			r.RequireIPv6 = true
			return r
		}
		r := dnsserver.Response{}
		r.RequireIPv6 = true
		return r
	})
}

// --- t11: MX address limit ---

// MXLimitCount is the number of MX records the t11 policy publishes.
const MXLimitCount = 20

func buildMXLimit(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		switch {
		case q.Type == dns.TypeTXT && len(q.Rest) == 0:
			return env.txt(q, "v=spf1 mx:"+env.sub(q, "mxfarm")+" ?all")
		case q.Type == dns.TypeMX && restIs(q, "mxfarm"):
			var rrs []dns.RR
			for i := 0; i < MXLimitCount; i++ {
				rrs = append(rrs, dns.RR{
					Name: q.Name, Type: dns.TypeMX, Class: dns.ClassINET, TTL: env.ttl(),
					Data: &dns.MX{
						Preference: uint16(10 + i),
						Host:       env.sub(q, fmt.Sprintf("mx%02d", i)),
					},
				})
			}
			return dnsserver.Response{Records: rrs}
		case len(q.Rest) == 1 && strings.HasPrefix(q.Rest[0], "mx"):
			return env.addr(q, Unaffiliated, UnaffiliatedV6)
		}
		return dnsserver.Response{}
	})
}

// --- t12: baseline ---

func buildBaseline(env *Env) dnsserver.Responder {
	return dnsserver.ResponderFunc(func(q *dnsserver.Query) dnsserver.Response {
		if q.Type == dns.TypeTXT && len(q.Rest) == 0 {
			return env.txt(q, fmt.Sprintf("v=spf1 ip4:%s -all", Unaffiliated))
		}
		return dnsserver.Response{}
	})
}
