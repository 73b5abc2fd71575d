// Package policy defines the study's SPF test-policy catalog
// (paper §4.3.2): 39 policies, each probing one specific validator
// behaviour. A policy is a table of DNS records relative to its
// <testid>.<mtaid> base name, plus response shaping, served for any
// (testid, mtaid) pair by one synthesizing engine (table.go), together
// with metadata describing what the policy measures. The paper's
// results discuss a subset of the catalog (§6–§7); the rest exercise
// adjacent behaviours and are retained for the fingerprinting future
// work the paper proposes (§8).
package policy

import (
	"fmt"
	"net/netip"
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
	// rows are the records the policy publishes.
	rows []row
	// miss answers a query no row matches (zero: an empty NOERROR).
	miss dnsserver.Response
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
}

// serialChain is the include chain l1 → l2 → l3, l1 and l2 answering
// after 100 ms, that separates serial from parallel validators (§7.1).
var serialChain = []row{
	{owner: "l1", typ: dns.TypeTXT, data: "v=spf1 include:l2.{base} ?all", delay: 100 * time.Millisecond},
	{owner: "l2", typ: dns.TypeTXT, data: "v=spf1 include:l3.{base} ?all", delay: 100 * time.Millisecond},
	{owner: "l3", typ: dns.TypeTXT, data: "v=spf1 ?all"},
}

// Catalog returns all 39 test policies in ID order.
func Catalog() []Test {
	tests := []Test{
		// --- t01: serial vs parallel (paper Figure 3) ---
		{
			ID: "t01", Name: "serial-vs-parallel", Section: "§7.1",
			Description: "include chain (100 ms shaped) before an a mechanism distinguishes serial from parallel lookup scheduling",
			rows: append(append([]row{
				{typ: dns.TypeTXT, data: "v=spf1 include:l1.{base} a:foo.{base} -all"},
			}, serialChain...), addrs("foo")...),
		},
		{
			ID: "t02", Name: "lookup-limits", Section: "§7.2",
			Description: "30 include mechanisms across 5 levels (46 lookups, 800 ms shaped) probe the 10-lookup limit and the 20 s timeout",
			rows:        limitsRows(),
		},
		// --- t03: HELO check ---
		//
		// The probe sends HELO helo.t03.<mtaid>.<suffix>; that name publishes
		// a bare -all policy. The MAIL domain t03.<mtaid>.<suffix> publishes a
		// policy whose evaluation requires one follow-up, so we can observe
		// MAIL evaluation distinctly from the HELO lookup.
		{
			ID: "t03", Name: "helo-check", Section: "§7.3",
			Description: "a -all policy at the HELO domain detects validators that check the HELO identity",
			rows: append([]row{
				{owner: "helo", typ: dns.TypeTXT, data: "v=spf1 -all"},
				{typ: dns.TypeTXT, data: "v=spf1 a:mail.{base} -all"},
			}, addrs("mail")...),
		},
		// --- t04/t05: syntax errors ---
		//
		// "ipv4" instead of "ip4" — the paper's deliberate typo.
		simple("t04", "syntax-error-main", "§7.3",
			"an ipv4: typo in the main policy; lookups right of the error reveal non-compliant continuation",
			"v=spf1 ipv4:"+Unaffiliated.String()+" a:after.{base} ?all", "after"),
		{
			ID: "t05", Name: "syntax-error-child", Section: "§7.3",
			Description: "an ipv4: typo inside an included policy; parent-policy lookups after the include reveal continuation",
			rows: append([]row{
				{typ: dns.TypeTXT, data: "v=spf1 include:l1.{base} a:cont.{base} ?all"},
				{owner: "l1", typ: dns.TypeTXT, data: "v=spf1 ipv4:" + Unaffiliated.String() + " ?all"},
			}, addrs("cont")...),
		},
		// --- t06: void lookups ---
		//
		// Every vN name exists but has no address records: NOERROR with
		// an empty answer — a textbook void lookup.
		simple("t06", "void-lookups", "§7.3",
			"five a mechanisms that resolve to nothing probe the two-void-lookup limit",
			"v=spf1 a:v1.{base} a:v2.{base} a:v3.{base} a:v4.{base} a:v5.{base} ?all"),
		// --- t07: mx fallback ---
		//
		// nomx has neither MX nor address records.
		simple("t07", "mx-fallback-a", "§7.3",
			"an mx mechanism whose domain has no MX records; A/AAAA follow-ups violate RFC 7208 §5.4",
			"v=spf1 mx:nomx.{base} ?all"),
		// --- t08: multiple records ---
		{
			ID: "t08", Name: "multiple-records", Section: "§7.3",
			Description: "two SPF TXT records, each with a distinct a name, reveal whether validators permerror, follow one, or follow both",
			rows: append([]row{
				{typ: dns.TypeTXT, data: "v=spf1 a:one.{base} ?all"},
				{typ: dns.TypeTXT, data: "v=spf1 a:two.{base} ?all"},
			}, addrs("one", "two")...),
		},
		// --- t09: TCP fallback ---
		//
		// Every answer at tcponly, of any type, is truncated over UDP.
		{
			ID: "t09", Name: "tcp-fallback", Section: "§7.3",
			Description: "truncated UDP responses force policy retrieval over TCP",
			rows: []row{
				{typ: dns.TypeTXT, data: "v=spf1 a:tcponly.{base} ?all", tc: true},
				{owner: "tcponly", typ: dns.TypeA, rdata: &dns.A{Addr: Unaffiliated}, tc: true},
				{owner: "tcponly", typ: dns.TypeAAAA, rdata: &dns.AAAA{Addr: UnaffiliatedV6}, tc: true},
				{owner: "tcponly", tc: true},
			},
		},
		// --- t10: IPv6-only ---
		//
		// The base policy is served normally; only the follow-up names sit
		// behind IPv6-only servers.
		{
			ID: "t10", Name: "ipv6-only", Section: "§7.3",
			Description: "follow-up names served only at the IPv6 endpoint test resolver IPv6 capability",
			rows: []row{
				{typ: dns.TypeTXT, data: "v=spf1 include:l1.{base} ?all"},
				{owner: "l1", typ: dns.TypeTXT, data: "v=spf1 ?all", v6: true},
			},
			miss: dnsserver.Response{RequireIPv6: true},
		},
		// --- t11: MX address limit ---
		//
		// The farm name mxfarm resolves to the unaffiliated addresses too.
		{
			ID: "t11", Name: "mx-address-limit", Section: "§7.3",
			Description: "an mx mechanism yielding 20 MX records probes the 10-address-lookup limit",
			rows:        append(mxFarmRows("mxfarm", "mx", MXLimitCount, 10), addrs("mxfarm")...),
		},
		// --- t12: baseline ---
		simple("t12", "baseline", "§6",
			"a plain failing policy; the TXT lookup alone marks the MTA as SPF-validating",
			"v=spf1 ip4:"+Unaffiliated.String()+" -all"),
	}
	return append(tests, extendedCatalog()...)
}

// Responders builds the dnsserver responder registry for the catalog.
func Responders(env *Env) map[string]dnsserver.Responder {
	return env.responders()
}

// RespondersWithDMARC builds the catalog registry with every From
// domain also publishing a strict reject DMARC policy at
// _dmarc.<domain>, as the study did for all three experiments
// (paper §4.3: "A strict reject policy was published for every domain
// from which experimental email was issued"). The contact mailbox is
// published in the rua= tag for attribution (§5.3).
func RespondersWithDMARC(env *Env, contact string) map[string]dnsserver.Responder {
	return env.responders(dmarcRow(contact))
}

// responders compiles every catalog policy, each with the extra rows.
func (e *Env) responders(extra ...row) map[string]dnsserver.Responder {
	out := make(map[string]dnsserver.Responder)
	for _, t := range Catalog() {
		out[t.ID] = newView(e.Suffix, 60, e.TimeScale, t.miss, t.rows, extra) // TTL 60 s
	}
	return out
}

// simple publishes one TXT record at the base and addresses at addrOwners.
func simple(id, name, section, desc, payload string, addrOwners ...string) Test {
	return Test{ID: id, Name: name, Section: section, Description: desc,
		rows: append([]row{{typ: dns.TypeTXT, data: payload}}, addrs(addrOwners...)...)}
}

// MXLimitCount is the number of MX records the t11 policy publishes.
const MXLimitCount = 20

// mxFarmRows publishes an mx mechanism naming farm: n MX hosts <prefix>00…
// from preference pref0, each resolving to the unaffiliated addresses.
func mxFarmRows(farm, prefix string, n, pref0 int) []row {
	rows := []row{{typ: dns.TypeTXT, data: "v=spf1 mx:" + farm + ".{base} ?all"}}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("%s%02d", prefix, i)
		rows = append(rows, row{owner: farm, typ: dns.TypeMX, pref: uint16(pref0 + i), data: host + ".{base}"})
		rows = append(rows, addrs(host)...)
	}
	return rows
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

// limitsRows publishes the t02 tree: each node includes its children (a
// leaf is a bare ?all); each node below the base answers after LimitsDelay.
func limitsRows() []row {
	rows := []row{{typ: dns.TypeTXT}}
	for i, node := 0, "root"; i < len(rows); i++ {
		if i > 0 {
			node = rows[i].owner
		}
		rows[i].data = "v=spf1"
		for _, kid := range limitsChildren[node] {
			rows[i].data += " include:" + kid + ".{base}"
			rows = append(rows, row{owner: kid, typ: dns.TypeTXT, delay: LimitsDelay})
		}
		rows[i].data += " ?all"
	}
	return rows
}
