package policy

import (
	"strings"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
)

// base stands for the view's base name in row data: <testid>.<mtaid>.<suffix>.
// in the test-policy zone, <domainid>.<suffix>. in the NotifyEmail zone.
const base = "{base}"

// row is one record a view publishes, relative to its base name.
type row struct {
	owner string    // labels left of the base name, dot-joined; "" is the base name
	typ   dns.Type  // 0 publishes no record: the shaping alone, for every type owner has no row of
	data  string    // TXT/SPF payload or MX host, with {base}
	rdata dns.RData // the data itself, for a record that names no base (A, AAAA)
	pref  uint16    // MX preference
	alias string    // answers typ with a CNAME to <alias>.<base> plus alias's typ rows, listed earlier
	// Shaping: delay at the paper's timing, truncation over UDP, service
	// only over IPv6. The first row of an (owner, type) sets it.
	delay  time.Duration
	tc, v6 bool
}

// addrs resolves each owner to the unaffiliated addresses.
func addrs(owners ...string) []row {
	var rows []row
	for _, o := range owners {
		rows = append(rows, row{owner: o, typ: dns.TypeA, rdata: &dns.A{Addr: Unaffiliated}},
			row{owner: o, typ: dns.TypeAAAA, rdata: &dns.AAAA{Addr: UnaffiliatedV6}})
	}
	return rows
}

// dmarcRow is the strict reject DMARC policy every study domain
// publishes, with the contact mailbox in rua= for attribution (§5.3).
func dmarcRow(contact string) row {
	rec := "v=DMARC1; p=reject"
	if contact != "" {
		rec += "; rua=mailto:" + contact
	}
	return row{owner: "_dmarc", typ: dns.TypeTXT, data: rec}
}

// view is the one synthesizing responder; a query no row matches gets miss.
type view struct {
	suffix  string
	ttl     uint32
	answers map[answerKey]*answer
	miss    dnsserver.Response
}

type answerKey struct {
	owner string
	typ   dns.Type
}

// answer is the compiled response to one (owner, type).
type answer struct {
	shape dnsserver.Response
	recs  []rec
}

// rec is one answer record: data if fixed, else expanded per query from parts.
type rec struct {
	prefix string // "" names the record after the query, else <prefix><base>
	typ    dns.Type
	data   dns.RData
	parts  []string
	pref   uint16
}

// newView compiles tables into the view serving them under suffix.
func newView(suffix string, ttl uint32, timeScale float64, miss dnsserver.Response, tables ...[]row) *view {
	v := &view{suffix: suffix, ttl: ttl, answers: map[answerKey]*answer{}, miss: miss}
	for _, rows := range tables {
		for _, r := range rows {
			k := answerKey{r.owner, r.typ}
			a := v.answers[k]
			if a == nil {
				a = &answer{shape: dnsserver.Response{Delay: r.delay, TruncateUDP: r.tc, RequireIPv6: r.v6}}
				if timeScale != 0 {
					a.shape.Delay = time.Duration(float64(r.delay) * timeScale)
				}
				v.answers[k] = a
			}
			switch {
			case r.alias != "":
				a.recs = append(a.recs, newRec(dns.TypeCNAME, r.alias+"."+base, 0))
				for _, c := range v.answers[answerKey{r.alias, r.typ}].recs {
					c.prefix = r.alias + "."
					a.recs = append(a.recs, c)
				}
			case r.rdata != nil:
				a.recs = append(a.recs, rec{typ: r.typ, data: r.rdata})
			case r.typ != 0:
				a.recs = append(a.recs, newRec(r.typ, r.data, r.pref))
			}
		}
	}
	return v
}

// newRec compiles one record, its data split around {base}.
func newRec(typ dns.Type, data string, pref uint16) rec {
	c := rec{typ: typ, parts: strings.Split(data, base), pref: pref}
	if len(c.parts) == 1 {
		c.data = c.expand("")
	}
	return c
}

// expand builds the record data with name in place of {base}.
func (c *rec) expand(name string) dns.RData {
	s := strings.Join(c.parts, name)
	switch c.typ {
	case dns.TypeMX:
		return &dns.MX{Preference: c.pref, Host: s}
	case dns.TypeCNAME:
		return &dns.CNAME{Target: s}
	}
	return &dns.TXT{Strings: dns.SplitTXT(s)}
}

// Respond builds the base name at most once, and only if a record needs it.
func (v *view) Respond(q *dnsserver.Query) dnsserver.Response {
	owner := strings.Join(q.Rest, ".") // allocates only for two labels or more
	a := v.answers[answerKey{owner, q.Type}]
	if a == nil {
		a = v.answers[answerKey{owner, 0}]
	}
	if a == nil {
		return v.miss
	}
	resp := a.shape
	resp.Records = make([]dns.RR, len(a.recs))
	baseName := ""
	for i := range a.recs {
		c := &a.recs[i]
		if baseName == "" && (c.data == nil || c.prefix != "") {
			baseName = dnsserver.Rejoin(q, v.suffix)
		}
		rr := dns.RR{Name: q.Name, Type: c.typ, Class: dns.ClassINET, TTL: v.ttl, Data: c.data}
		if c.prefix != "" {
			rr.Name = c.prefix + baseName
		}
		if rr.Data == nil {
			rr.Data = c.expand(baseName)
		}
		resp.Records[i] = rr
	}
	return resp
}
