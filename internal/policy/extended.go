package policy

import (
	"fmt"
	"strings"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
)

// extendedCatalog returns tests t13–t39: the remainder of the study's
// 39 policies. The paper's results sections do not report on these
// individually (§4.3.2 notes only the most interesting subset is
// discussed), but they were part of every probe run and feed the
// validator-fingerprinting future work (§8).
func extendedCatalog() []Test {
	ip4Fail := "v=spf1 ip4:" + Unaffiliated.String() + " -all"

	return []Test{
		// t13: redirect handling.
		{
			ID: "t13", Name: "redirect",
			Description: "a redirect= modifier; following it shows modifier support",
			rows: []row{
				{typ: dns.TypeTXT, data: "v=spf1 redirect=rd.{base}"},
				{owner: "rd", typ: dns.TypeTXT, data: ip4Fail},
			},
		},
		// t14: exists with the %{i} macro — reveals macro support and
		// leaks the validator's resolver-visible client IP handling. Any
		// expanded exists name answers nothing (void).
		simple("t14", "exists-macro-i", "",
			"exists:%{ir}.<base> probes macro expansion; the query name carries the probed client address",
			"v=spf1 exists:%{ir}.x.{base} ?all"),
		// t15: ptr mechanism — deprecated but still published.
		simple("t15", "ptr-mechanism", "",
			"a ptr mechanism; PTR traffic reveals validators that still evaluate it",
			"v=spf1 ptr ?all"),
		// t16: include chain of exactly 10 (at the limit, compliant
		// validators finish; off-by-one implementations permerror early).
		{
			ID: "t16", Name: "limit-boundary",
			Description: "an include chain of exactly 10 lookups probes off-by-one limit handling",
			rows:        chainRows("c", 10, "include:%s ?all"),
		},
		// t17: include of a domain with no SPF record (permerror per spec).
		{
			ID: "t17", Name: "include-none",
			Description: "include of a policy-less name must permerror; lookups after it reveal tolerance",
			rows: append([]row{
				{typ: dns.TypeTXT, data: "v=spf1 include:nospf.{base} a:after.{base} ?all"},
				{owner: "nospf", typ: dns.TypeTXT, data: "unrelated txt payload"},
			}, addrs("after")...),
		},
		// t18: include loop (self-referential) — must not loop forever.
		simple("t18", "include-loop", "",
			"a self-including policy; lookup counts expose loop protection",
			"v=spf1 include:{base} ?all"),
		// t19: redirect loop.
		{
			ID: "t19", Name: "redirect-loop",
			Description: "two policies redirecting to each other expose loop protection on modifiers",
			rows: []row{
				{typ: dns.TypeTXT, data: "v=spf1 redirect=peer.{base}"},
				{owner: "peer", typ: dns.TypeTXT, data: "v=spf1 redirect={base}"},
			},
		},
		// t20–t23: qualifier variants on the all mechanism.
		simple("t20", "fail-all", "", "plain -all (reject everything)", "v=spf1 -all"),
		simple("t21", "softfail-all", "", "plain ~all", "v=spf1 ~all"),
		simple("t22", "neutral-all", "", "plain ?all", "v=spf1 ?all"),
		simple("t23", "pass-all", "", "plain +all (accept everything — an anti-pattern)", "v=spf1 +all"),
		// t24: CIDR matching.
		simple("t24", "ip4-cidr", "",
			"an ip4 /24 containing the documentation block tests prefix matching",
			"v=spf1 ip4:192.0.2.0/24 -all"),
		// t25: ip6 literal.
		simple("t25", "ip6-literal", "",
			"an ip6 literal plus -all tests IPv6 literal parsing",
			"v=spf1 ip6:"+UnaffiliatedV6.String()+"/64 -all"),
		// t26: unknown modifier must be ignored.
		simple("t26", "unknown-modifier", "",
			"an unknown modifier before an a mechanism; the follow-up lookup shows it was ignored per spec",
			"v=spf1 future=modarg.{base} a:amech.{base} ?all", "amech"),
		// t27: long policy split across TXT character-strings.
		simple("t27", "multi-string-txt", "",
			"a policy split across several 255-octet character-strings tests concatenation",
			"v=spf1 "+strings.Repeat("ip4:203.0.113.77 ", 18)+"a:tail.{base} ?all", "tail"),
		// t28: SPF (type 99) record only — deprecated; validators must
		// use TXT and find nothing.
		{
			ID: "t28", Name: "type99-only",
			Description: "the policy exists only as a type-SPF (99) record; RFC 7208 validators see none",
			rows:        []row{{typ: dns.TypeSPF, data: "v=spf1 -all"}},
		},
		// t29: uppercase mechanisms (must be case-insensitive).
		simple("t29", "uppercase-terms", "",
			"mechanisms in uppercase test case-insensitive term parsing",
			"v=spf1 A:up.{base} -ALL", "up"),
		// t30: empty policy (just the version tag): neutral-equivalent.
		simple("t30", "empty-policy", "", "a bare v=spf1 with no terms", "v=spf1"),
		// t31: NXDOMAIN base — the From domain publishes nothing at all.
		{
			ID: "t31", Name: "nxdomain-base",
			Description: "the From domain does not exist; validators should return none without retries",
			miss:        dnsserver.Response{RCode: dns.RCodeNameError},
		},
		// t32: slow single response just under the recommended timeout.
		{
			ID: "t32", Name: "slow-response",
			Description: "a single 5 s (scaled) response delay probes per-query patience",
			rows:        []row{{typ: dns.TypeTXT, data: ip4Fail, delay: 5 * LimitsDelay}},
		},
		// t33: exists with the local-part macro.
		simple("t33", "exists-macro-l", "",
			"exists:%{l}.<base> leaks how validators expand the sender local part",
			"v=spf1 exists:%{l}.lp.{base} ?all"),
		// t34: dual-CIDR a mechanism.
		simple("t34", "dual-cidr", "",
			"a:<name>/24//64 tests dual-CIDR parsing",
			"v=spf1 a:dc.{base}/24//64 -all", "dc"),
		// t35: exactly 10 MX records (at the address-lookup limit).
		{
			ID: "t35", Name: "mx-limit-boundary",
			Description: "an mx mechanism with exactly 10 MX records probes off-by-one MX limit handling",
			rows:        mxFarmRows("mxten", numbered("h", 10), 0),
		},
		// t36: three void lookups (one past the recommended limit).
		{
			ID: "t36", Name: "void-boundary",
			Description: "three non-resolving a mechanisms straddle the two-void-lookup limit",
			rows:        voids("w1", "w2", "w3"),
		},
		// t37: CNAME at the policy name.
		{
			ID: "t37", Name: "cname-policy",
			Description: "the policy name is a CNAME to the real record; resolution reveals CNAME chasing",
			rows: []row{
				{owner: "real", typ: dns.TypeTXT, data: ip4Fail},
				{typ: dns.TypeTXT, alias: "real"},
			},
		},
		// t38: whitespace-heavy policy.
		simple("t38", "whitespace", "",
			"extra spaces between terms test tokenizer robustness",
			"v=spf1    ip4:"+Unaffiliated.String()+"     -all"),
		// t39: deep redirect chain (redirects also count toward the
		// 10-lookup limit).
		{
			ID: "t39", Name: "redirect-chain",
			Description: "a 12-step redirect chain probes whether redirects count against the lookup limit",
			rows:        chainRows("r", 12, "redirect=%s"),
		},
	}
}

// chainRows chains the base through <label>1…<label>n, each link naming
// the next through term (%s is the next name); <label>n ends with ?all.
func chainRows(label string, n int, term string) []row {
	rows := []row{{typ: dns.TypeTXT}}
	for i := 1; i <= n; i++ {
		next := fmt.Sprintf("%s%d", label, i)
		rows[i-1].data = "v=spf1 " + fmt.Sprintf(term, next+".{base}")
		rows = append(rows, row{owner: next, typ: dns.TypeTXT, data: "v=spf1 ?all"})
	}
	return rows
}
