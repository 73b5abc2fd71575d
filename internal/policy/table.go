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
	typ   dns.Type  // 0 answers every type owner has no row of
	data  string    // TXT/SPF payload or MX host, with {base}; "" (and no rdata or alias) publishes no record
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

// noAddrs gives each owner an A and an AAAA row with no record: a name
// a policy leads validators to but publishes nothing at answers the
// empty NOERROR of the view's miss, yet is one of the policy's rows.
func noAddrs(owners ...string) []row {
	var rows []row
	for _, o := range owners {
		rows = append(rows, row{owner: o, typ: dns.TypeA}, row{owner: o, typ: dns.TypeAAAA})
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
	return row{owner: DMARCLabel, typ: dns.TypeTXT, data: rec}
}

// keys numbers a table's (owner, type) keys and finds a query's by the
// one key rule, serving's (view.Respond) and reading's (Row): the key of
// (owner, the query's type), else of (owner, 0). Key 0 is the base
// name's TXT, published or not; every other key takes the next number
// in table order. Each key has a slot of its own under a hash of its
// owner's word (word) and its type, seeded until none collide, so a
// lookup is one pass over the query's labels and one slot, two for a
// type-0 row. Only two hashed names of one type with equal hashes could
// share every slot; newKeys panics on such a table.
type keys struct {
	n     int // keys numbered
	seed  uint64
	shift uint8
	slots []slot
	names []string // the owner of each slot whose word is hashed
}

// slot is one key. The zero slot is empty: it matches no query.
type slot struct {
	word uint64
	typ  dns.Type
	size uint8 // 1 + the length of a packed word's label; 0: hashed
	n    uint16
}

// word is labels as one word. The base name (no labels, or one empty
// label), or a single label of up to eight bytes, is packed byte for
// byte, so that it equals another of its size exactly when their words
// are equal; size is 1 + its length. Any other name is hashed (FNV-1a
// over the dot-joined labels), size 0.
func word(labels []string) (w uint64, size uint8) {
	if len(labels) == 0 {
		return 0, 1
	}
	if l := labels[0]; len(labels) == 1 && len(l) <= 8 {
		for i := 0; i < len(l); i++ {
			w = w<<8 | uint64(l[i])
		}
		return w, uint8(len(l) + 1)
	}
	const prime = 1099511628211
	w = 14695981039346656037
	for i, l := range labels {
		if i > 0 {
			w = (w ^ '.') * prime
		}
		for j := 0; j < len(l); j++ {
			w = (w ^ uint64(l[j])) * prime
		}
	}
	return w, 0
}

// newKeys numbers the keys of tables.
func newKeys(tables ...[]row) *keys {
	type key struct {
		owner string
		typ   dns.Type
	}
	var order []key
	seen := map[key]bool{{"", dns.TypeTXT}: true}
	for _, rows := range tables {
		for _, r := range rows {
			if x := (key{r.owner, r.typ}); !seen[x] {
				seen[x] = true
				order = append(order, x)
			}
		}
	}
	order = append([]key{{"", dns.TypeTXT}}, order...)
	k := &keys{n: len(order)}
	for bits := 2; bits < 16; bits++ {
		if 1<<bits < 4*len(order) {
			continue
		}
	seeds:
		for seed := uint64(1); seed < 256; seed++ {
			k.seed, k.shift = seed*0x9e3779b97f4a7c15, uint8(64-bits)
			k.slots, k.names = make([]slot, 1<<bits), make([]string, 1<<bits)
			for n, x := range order {
				w, size := word(strings.Split(x.owner, "."))
				i := k.slot(w, size, x.typ)
				if k.slots[i] != (slot{}) {
					continue seeds
				}
				k.slots[i], k.names[i] = slot{w, x.typ, size, uint16(n)}, x.owner
			}
			return k
		}
	}
	panic("policy: no hash seed separates the keys")
}

// slot is the slot of (word, size, typ).
func (k *keys) slot(w uint64, size uint8, typ dns.Type) uint64 {
	return ((w^k.seed)*0xff51afd7ed558ccd + (uint64(typ)<<8|uint64(size))*0xc4ceb9fe1a85ec53) >> k.shift
}

// key returns the key of (owner, typ) exactly, or -1.
func (k *keys) key(owner string, typ dns.Type) int {
	return k.find(strings.Split(owner, "."), typ, typ)
}

// find returns the key of the name labels for typ, else for alt, or
// -1. find(labels, typ, 0) is the key rule.
func (k *keys) find(labels []string, typ, alt dns.Type) int {
	w, size := word(labels)
	for t := typ; ; t = alt {
		i := k.slot(w, size, t)
		if s := k.slots[i]; s.word == w && s.typ == t && s.size == size && (size != 0 || spells(k.names[i], labels)) {
			return int(s.n)
		}
		if t == alt {
			return -1
		}
	}
}

// spells reports whether labels, dot-joined, are name.
func spells(name string, labels []string) bool {
	for i, l := range labels {
		if i > 0 {
			if name == "" || name[0] != '.' {
				return false
			}
			name = name[1:]
		}
		if !strings.HasPrefix(name, l) {
			return false
		}
		name = name[len(l):]
	}
	return name == ""
}

// view is the one synthesizing responder; a query no row matches gets miss.
type view struct {
	suffix  string
	ttl     uint32
	keys    *keys
	answers []*answer // by key; nil where the view publishes no row
	miss    dnsserver.Response
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

// newView compiles tables, whose keys k numbers, into the view serving
// them under suffix.
func newView(suffix string, ttl uint32, timeScale float64, miss dnsserver.Response, k *keys, tables ...[]row) *view {
	v := &view{suffix: suffix, ttl: ttl, keys: k, answers: make([]*answer, k.n), miss: miss}
	for _, rows := range tables {
		for _, r := range rows {
			n := k.key(r.owner, r.typ)
			a := v.answers[n]
			if a == nil {
				a = &answer{shape: dnsserver.Response{Delay: r.delay, TruncateUDP: r.tc, RequireIPv6: r.v6}}
				if timeScale != 0 {
					a.shape.Delay = time.Duration(float64(r.delay) * timeScale)
				}
				v.answers[n] = a
			}
			switch {
			case r.alias != "":
				a.recs = append(a.recs, newRec(dns.TypeCNAME, r.alias+"."+base, 0))
				for _, c := range v.answers[k.key(r.alias, r.typ)].recs {
					c.prefix = r.alias + "."
					a.recs = append(a.recs, c)
				}
			case r.rdata != nil:
				a.recs = append(a.recs, rec{typ: r.typ, data: r.rdata})
			case r.data != "":
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
	n := v.keys.find(q.Rest, q.Type, 0)
	if n < 0 || v.answers[n] == nil {
		return v.miss
	}
	a := v.answers[n]
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
