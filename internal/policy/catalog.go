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
var serialChain = func() []row {
	rows := chainRows("l", 3, "include:%s ?all")[1:]
	rows[0].delay, rows[1].delay = 100*time.Millisecond, 100*time.Millisecond
	return rows
}()

// The owner labels the readings (readings.go) test, each spelled once:
// the payloads, the rows and the reading sets are all built from these.
const (
	serialTarget       = "foo"   // t01's a-mechanism target
	mainAfter          = "after" // t04's name right of the syntax error
	childCont          = "cont"  // t05's name past the erring include
	noMX               = "nomx"  // t07's MX-less name
	multiOne, multiTwo = "one", "two"
)

var (
	heloRows  = []row{{owner: "helo", typ: dns.TypeTXT, data: "v=spf1 -all"}}
	voidNames = []string{"v1", "v2", "v3", "v4", "v5"}
	// tcpFallback is t09: every answer at tcponly, of any type, is
	// truncated over UDP, and so is the base policy.
	tcpFallback = []row{
		{typ: dns.TypeTXT, data: "v=spf1 a:tcponly.{base} ?all", tc: true},
		{owner: "tcponly", typ: dns.TypeA, rdata: &dns.A{Addr: Unaffiliated}, tc: true},
		{owner: "tcponly", typ: dns.TypeAAAA, rdata: &dns.AAAA{Addr: UnaffiliatedV6}, tc: true},
		{owner: "tcponly", tc: true},
	}
	ipv6Only = []row{{owner: "l1", typ: dns.TypeTXT, data: "v=spf1 ?all", v6: true}}
	mxHosts  = numbered("mx", MXLimitCount)
)

// Catalog returns all 39 test policies in ID order.
func Catalog() []Test {
	tests := []Test{
		// --- t01: serial vs parallel (paper Figure 3) ---
		{
			ID: "t01", Name: "serial-vs-parallel", Section: "§7.1",
			Description: "include chain (100 ms shaped) before an a mechanism distinguishes serial from parallel lookup scheduling",
			rows: append(append([]row{
				{typ: dns.TypeTXT, data: "v=spf1" + terms("include", serialChain[0].owner) + terms("a", serialTarget) + " -all"},
			}, serialChain...), addrs(serialTarget)...),
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
			rows: append(append([]row{
				{typ: dns.TypeTXT, data: "v=spf1 a:mail.{base} -all"},
			}, heloRows...), addrs("mail")...),
		},
		// --- t04/t05: syntax errors ---
		//
		// "ipv4" instead of "ip4" — the paper's deliberate typo.
		simple("t04", "syntax-error-main", "§7.3",
			"an ipv4: typo in the main policy; lookups right of the error reveal non-compliant continuation",
			"v=spf1 ipv4:"+Unaffiliated.String()+terms("a", mainAfter)+" ?all", mainAfter),
		{
			ID: "t05", Name: "syntax-error-child", Section: "§7.3",
			Description: "an ipv4: typo inside an included policy; parent-policy lookups after the include reveal continuation",
			rows: append([]row{
				{typ: dns.TypeTXT, data: "v=spf1 include:l1.{base}" + terms("a", childCont) + " ?all"},
				{owner: "l1", typ: dns.TypeTXT, data: "v=spf1 ipv4:" + Unaffiliated.String() + " ?all"},
			}, addrs(childCont)...),
		},
		// --- t06: void lookups ---
		//
		// Every vN name exists but has no address records: NOERROR with
		// an empty answer — a textbook void lookup.
		{
			ID: "t06", Name: "void-lookups", Section: "§7.3",
			Description: "five a mechanisms that resolve to nothing probe the two-void-lookup limit",
			rows:        voids(voidNames...),
		},
		// --- t07: mx fallback ---
		//
		// nomx has neither MX nor address records: empty answers.
		{
			ID: "t07", Name: "mx-fallback-a", Section: "§7.3",
			Description: "an mx mechanism whose domain has no MX records; A/AAAA follow-ups violate RFC 7208 §5.4",
			rows: append([]row{
				{typ: dns.TypeTXT, data: "v=spf1" + terms("mx", noMX) + " ?all"},
				{owner: noMX, typ: dns.TypeMX},
			}, noAddrs(noMX)...),
		},
		// --- t08: multiple records ---
		{
			ID: "t08", Name: "multiple-records", Section: "§7.3",
			Description: "two SPF TXT records, each with a distinct a name, reveal whether validators permerror, follow one, or follow both",
			rows: append([]row{
				{typ: dns.TypeTXT, data: "v=spf1" + terms("a", multiOne) + " ?all"},
				{typ: dns.TypeTXT, data: "v=spf1" + terms("a", multiTwo) + " ?all"},
			}, addrs(multiOne, multiTwo)...),
		},
		// --- t09: TCP fallback ---
		{
			ID: "t09", Name: "tcp-fallback", Section: "§7.3",
			Description: "truncated UDP responses force policy retrieval over TCP",
			rows:        tcpFallback,
		},
		// --- t10: IPv6-only ---
		//
		// The base policy is served normally; only the follow-up names sit
		// behind IPv6-only servers.
		{
			ID: "t10", Name: "ipv6-only", Section: "§7.3",
			Description: "follow-up names served only at the IPv6 endpoint test resolver IPv6 capability",
			rows: append([]row{
				{typ: dns.TypeTXT, data: "v=spf1" + terms("include", ipv6Only[0].owner) + " ?all"},
			}, ipv6Only...),
			miss: dnsserver.Response{RequireIPv6: true},
		},
		// --- t11: MX address limit ---
		//
		// The farm name mxfarm resolves to the unaffiliated addresses too.
		{
			ID: "t11", Name: "mx-address-limit", Section: "§7.3",
			Description: "an mx mechanism yielding 20 MX records probes the 10-address-lookup limit",
			rows:        append(mxFarmRows("mxfarm", mxHosts, 10), addrs("mxfarm")...),
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
	for i, t := range Catalog() {
		out[t.ID] = newView(e.Suffix, 60, e.TimeScale, t.miss, catalog[i], t.rows, extra) // TTL 60 s
	}
	return out
}

// simple publishes one TXT record at the base and addresses at addrOwners.
func simple(id, name, section, desc, payload string, addrOwners ...string) Test {
	return Test{ID: id, Name: name, Section: section, Description: desc,
		rows: append([]row{{typ: dns.TypeTXT, data: payload}}, addrs(addrOwners...)...)}
}

// terms writes one " <mech>:<name>.{base}" term per name.
func terms(mech string, names ...string) string {
	s := ""
	for _, n := range names {
		s += " " + mech + ":" + n + "." + base
	}
	return s
}

// voids publishes an a mechanism for each name and no address at any:
// each is a void lookup (t06, t36).
func voids(names ...string) []row {
	return append([]row{{typ: dns.TypeTXT, data: "v=spf1" + terms("a", names...) + " ?all"}}, noAddrs(names...)...)
}

// MXLimitCount is the number of MX records the t11 policy publishes.
const MXLimitCount = 20

// numbered names n hosts <prefix>00, <prefix>01, ….
func numbered(prefix string, n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return hosts
}

// mxFarmRows publishes an mx mechanism naming farm: an MX record per
// host from preference pref0, each host resolving to the unaffiliated
// addresses.
func mxFarmRows(farm string, hosts []string, pref0 int) []row {
	rows := []row{{typ: dns.TypeTXT, data: "v=spf1" + terms("mx", farm) + " ?all"}}
	for i, host := range hosts {
		rows = append(rows, row{owner: farm, typ: dns.TypeMX, pref: uint16(pref0 + i), data: host + "." + base})
		rows = append(rows, addrs(host)...)
	}
	return rows
}

// --- t02: lookup limits (paper Figure 4) ---
//
// The policy tree has five levels and 46 policies below the base, so a
// fully violating validator issues 46 lookups after the base policy.
// The base includes n1…n8; from n1 on, each of those includes two
// children, each child two grandchildren and each grandchild one
// great-grandchild, until the tree holds 46 (n4's last branch is cut
// short). Labels encode the path: n1, n1-2, n1-2-1. Evaluation order is
// depth-first, and every policy below the base is delayed 800 ms.

// LimitsDelay is the paper's per-response delay for t02 names.
const LimitsDelay = 800 * time.Millisecond

// limitsRows publishes the t02 tree, the base first: each node includes
// its children in order; a leaf is a bare ?all.
func limitsRows() []row {
	const size = 46
	rows := []row{{typ: dns.TypeTXT}}
	kid := func(parent int, owner string) int {
		rows[parent].data += terms("include", owner)
		rows = append(rows, row{owner: owner, typ: dns.TypeTXT, delay: LimitsDelay})
		return len(rows) - 1
	}
	for i := 1; i <= 8; i++ {
		kid(0, fmt.Sprintf("n%d", i))
	}
	for i := 1; len(rows) <= size; i++ {
		for j := 1; j <= 2 && len(rows) <= size; j++ {
			child := kid(i, fmt.Sprintf("%s-%d", rows[i].owner, j))
			for k := 1; k <= 2 && len(rows) <= size; k++ {
				grand := kid(child, fmt.Sprintf("%s-%d", rows[child].owner, k))
				if len(rows) <= size {
					kid(grand, rows[grand].owner+"-1")
				}
			}
		}
	}
	for i := range rows {
		rows[i].data = "v=spf1" + rows[i].data + " ?all"
	}
	return rows
}
