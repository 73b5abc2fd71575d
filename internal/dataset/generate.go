package dataset

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
)

// MTAInfo is one receiving mail server in a population.
type MTAInfo struct {
	// ID is the MTA identifier used in probe From addresses.
	ID string
	// Hostname is the MX host name.
	Hostname string
	// Addr4 is the MTA's IPv4 address (always valid).
	Addr4 netip.Addr
	// Addr6 is the MTA's IPv6 address; invalid when v4-only.
	Addr6 netip.Addr
	// ASN and ASName attribute the MTA's addresses (Table 3).
	ASN    int
	ASName string
	// Tier biases the profile sampling (see Tier constants).
	Tier Tier
	// ProfileSeed makes per-MTA behaviour sampling deterministic.
	ProfileSeed int64
}

// Tier classifies an MTA for profile-rate adjustment.
type Tier int

// Tiers.
const (
	// TierGeneral is the default population.
	TierGeneral Tier = iota
	// TierTop1M marks MTAs serving Alexa-Top-1M domains, which the
	// paper found validate at higher rates (Table 7).
	TierTop1M
	// TierTop1K marks MTAs serving Alexa-Top-1K domains.
	TierTop1K
	// TierProvider marks the named providers of Table 6, whose
	// validation status is pinned rather than sampled.
	TierProvider
)

// Domain is one email recipient domain in a population.
type Domain struct {
	// Name is the registrable domain name.
	Name string
	// ID is the domainid label used in NotifyEmail From addresses.
	ID string
	// TLD is the top-level domain.
	TLD string
	// MTAs are the domain's designated mail servers, preference order.
	MTAs []*MTAInfo
	// QueryCount is the MX-query demand over the collection window
	// (drives the Table 5 decile analysis).
	QueryCount int
	// AlexaRank is the domain's popularity rank; 0 means unranked.
	AlexaRank int
	// Local marks institution-local domains (the byu.edu analogue),
	// excluded from the decile analysis per §6.3.
	Local bool
	// Provider points at the Table 6 provider entry when this domain
	// is one of the 19, else nil.
	Provider *Provider
}

// Population is a complete generated dataset.
type Population struct {
	// Name labels the dataset ("NotifyEmail", "TwoWeekMX").
	Name    string
	Domains []*Domain
	// MTAs lists the unique MTAs across all domains.
	MTAs []*MTAInfo
	// TotalASes is the number of distinct ASes represented.
	TotalASes int
}

// Spec parameterizes generation.
type Spec struct {
	// Name labels the population.
	Name string
	// NumDomains is the domain count (e.g. NotifyEmailDomains).
	NumDomains int
	// TLDs is the head of the TLD distribution; the remainder is
	// spread across TailTLDs synthetic TLDs.
	TLDs     []TLDWeight
	TailTLDs int
	// ASes is the head of the AS distribution; the remainder spreads
	// across TailASes single-MTA hosting ASes.
	ASes     []ASWeight
	TailASes int
	// V6Fraction is the fraction of MTAs that also have an IPv6
	// address.
	V6Fraction float64
	// SharedMTAFraction is the chance a tail-AS domain shares an MTA
	// with the previous tail domain in the same AS.
	SharedMTAFraction float64
	// IncludeProviders adds the 19 Table 6 provider domains.
	IncludeProviders bool
	// AlexaTop1M / AlexaTop1K set how many domains receive popularity
	// ranks (Table 7).
	AlexaTop1M int
	AlexaTop1K int
	// LocalDomains adds institution-local domains with outsized query
	// counts (the byu.edu analogue, 27 domains ≈ 0.12%).
	LocalDomains int
	// Seed drives all randomness.
	Seed int64
}

// NotifyEmailSpec returns the paper-calibrated spec for the
// NotifyEmail/NotifyMX population.
func NotifyEmailSpec(seed int64) Spec {
	return Spec{
		Name:              "NotifyEmail",
		NumDomains:        NotifyEmailDomains,
		TLDs:              NotifyEmailTLDs,
		TailTLDs:          249,
		ASes:              NotifyEmailASes,
		TailASes:          NotifyEmailTotalASes - len(NotifyEmailASes),
		V6Fraction:        float64(NotifyEmailMTAsV6) / float64(NotifyEmailMTAsV4),
		SharedMTAFraction: 0.35,
		IncludeProviders:  true,
		AlexaTop1M:        AlexaTop1MInNotifyEmail,
		AlexaTop1K:        AlexaTop1KInNotifyEmail,
		Seed:              seed,
	}
}

// TwoWeekMXSpec returns the paper-calibrated spec for the TwoWeekMX
// population.
func TwoWeekMXSpec(seed int64) Spec {
	return Spec{
		Name:              "TwoWeekMX",
		NumDomains:        TwoWeekMXDomains,
		TLDs:              TwoWeekMXTLDs,
		TailTLDs:          208,
		ASes:              TwoWeekMXASes,
		TailASes:          TwoWeekMXTotalASes - len(TwoWeekMXASes),
		V6Fraction:        float64(TwoWeekMXMTAsV6) / float64(TwoWeekMXMTAsV4),
		SharedMTAFraction: 0.55,
		LocalDomains:      27,
		Seed:              seed,
	}
}

// Scaled returns the spec shrunk (or grown) to the given domain count,
// keeping its shape: whichever of the Alexa membership counts and the
// local-domain count the spec uses are rescaled to roughly the paper's
// shares (Top-1M 1/9, Top-1K 1/300, local domains 1/800 but at least
// two so the decile analysis keeps its outliers); a zero field stays
// zero.
func (s Spec) Scaled(domains int) Spec {
	s.NumDomains = domains
	if s.AlexaTop1M != 0 {
		s.AlexaTop1M = domains / 9
	}
	if s.AlexaTop1K != 0 {
		s.AlexaTop1K = domains / 300
	}
	if s.LocalDomains != 0 {
		s.LocalDomains = max(2, domains/800)
	}
	return s
}

// Generate builds a deterministic population from the spec.
func Generate(spec Spec) *Population {
	rng := rand.New(rand.NewSource(spec.Seed))
	pop := &Population{Name: spec.Name}

	gen := &generator{
		spec:    spec,
		rng:     rng,
		pop:     pop,
		mtaByAS: make(map[int][]*MTAInfo),
		asSeen:  make(map[int]bool),
	}

	// Provider domains first so their fixed MTAs exist.
	if spec.IncludeProviders {
		for i := range Providers {
			gen.addProviderDomain(&Providers[i])
		}
	}
	for len(pop.Domains) < spec.NumDomains-spec.LocalDomains {
		gen.addDomain(false)
	}
	for i := 0; i < spec.LocalDomains; i++ {
		gen.addDomain(true)
	}
	gen.assignQueryCounts()
	gen.assignAlexaRanks()
	pop.TotalASes = len(gen.asSeen)
	return pop
}

type generator struct {
	spec        Spec
	rng         *rand.Rand
	pop         *Population
	mtaByAS     map[int][]*MTAInfo
	asSeen      map[int]bool
	asIndex     map[int]int
	nextMTA     int
	nextDom     int
	lastTailMTA map[int]*MTAInfo
}

// indexOf assigns each distinct AS a unique address-block index, so
// every AS announces its own /16 (v4) and /32 (v6).
func (g *generator) indexOf(asn int) int {
	if g.asIndex == nil {
		g.asIndex = make(map[int]int)
	}
	idx, ok := g.asIndex[asn]
	if !ok {
		idx = len(g.asIndex)
		g.asIndex[asn] = idx
	}
	return idx
}

// pickTLD draws a TLD from the head distribution or the tail.
func (g *generator) pickTLD() string {
	x := g.rng.Float64()
	for _, tw := range g.spec.TLDs {
		if x < tw.Weight {
			return tw.TLD
		}
		x -= tw.Weight
	}
	return fmt.Sprintf("tld%03d", g.rng.Intn(g.spec.TailTLDs))
}

// pickAS draws an AS from the head distribution or the tail.
func (g *generator) pickAS() ASWeight {
	x := g.rng.Float64()
	for _, aw := range g.spec.ASes {
		if x < aw.DomainShare {
			return aw
		}
		x -= aw.DomainShare
	}
	tail := g.rng.Intn(g.spec.TailASes)
	return ASWeight{
		ASN:     400000 + tail,
		Name:    fmt.Sprintf("AS-tail-%05d", tail),
		MTAPool: 0, // per-domain MTAs
	}
}

// newMTA mints an MTA in the given AS.
func (g *generator) newMTA(as ASWeight, tier Tier) *MTAInfo {
	id := g.nextMTA
	g.nextMTA++
	g.asSeen[as.ASN] = true
	asIdx := g.indexOf(as.ASN)
	a4 := netip.AddrFrom4([4]byte{
		byte(24 + asIdx/256%64), byte(asIdx % 256),
		byte(id / 250 % 250), byte(2 + id%250),
	})
	var a6 netip.Addr
	if g.rng.Float64() < g.spec.V6Fraction {
		a6 = netip.AddrFrom16([16]byte{
			0xfd, 0x00,
			byte(asIdx >> 8), byte(asIdx),
			byte(id >> 16), byte(id >> 8), byte(id),
			0, 0, 0, 0, 0, 0, 0, 0, 0x25,
		})
	}
	m := &MTAInfo{
		ID:          fmt.Sprintf("m%06d", id),
		Hostname:    fmt.Sprintf("mx%d.as%d.sim.example", id, as.ASN),
		Addr4:       a4,
		Addr6:       a6,
		ASN:         as.ASN,
		ASName:      as.Name,
		Tier:        tier,
		ProfileSeed: g.spec.Seed*1_000_003 + int64(id),
	}
	g.pop.MTAs = append(g.pop.MTAs, m)
	g.mtaByAS[as.ASN] = append(g.mtaByAS[as.ASN], m)
	return m
}

// mtaIn returns an MTA in the AS, reusing pool members for provider
// ASes and occasionally sharing tail-AS MTAs.
func (g *generator) mtaIn(as ASWeight, tier Tier) *MTAInfo {
	if as.MTAPool > 0 {
		pool := g.mtaByAS[as.ASN]
		if len(pool) >= as.MTAPool {
			return pool[g.rng.Intn(len(pool))]
		}
		// Grow the pool with probability that fills it gradually.
		if len(pool) > 0 && g.rng.Float64() > 0.3 {
			return pool[g.rng.Intn(len(pool))]
		}
		return g.newMTA(as, tier)
	}
	if g.lastTailMTA == nil {
		g.lastTailMTA = make(map[int]*MTAInfo)
	}
	if prev, ok := g.lastTailMTA[as.ASN]; ok && g.rng.Float64() < g.spec.SharedMTAFraction {
		return prev
	}
	m := g.newMTA(as, tier)
	g.lastTailMTA[as.ASN] = m
	return m
}

func (g *generator) addDomain(local bool) *Domain {
	id := g.nextDom
	g.nextDom++
	tld := g.pickTLD()
	name := fmt.Sprintf("dom%06d.%s", id, tld)
	if local {
		tld = "edu"
		name = fmt.Sprintf("dept%03d.university.edu", id)
	}
	d := &Domain{
		Name:  name,
		ID:    fmt.Sprintf("d%06d", id),
		TLD:   tld,
		Local: local,
	}
	as := g.pickAS()
	nMTAs := 1
	if g.rng.Float64() < 0.25 {
		nMTAs = 2
	}
	seen := map[string]bool{}
	for i := 0; i < nMTAs; i++ {
		m := g.mtaIn(as, TierGeneral)
		if !seen[m.ID] {
			seen[m.ID] = true
			d.MTAs = append(d.MTAs, m)
		}
	}
	g.pop.Domains = append(g.pop.Domains, d)
	return d
}

func (g *generator) addProviderDomain(p *Provider) {
	id := g.nextDom
	g.nextDom++
	tld := p.Domain[len(p.Domain)-func() int {
		for i := len(p.Domain) - 1; i >= 0; i-- {
			if p.Domain[i] == '.' {
				return len(p.Domain) - i - 1
			}
		}
		return len(p.Domain)
	}():]
	d := &Domain{
		Name:     p.Domain,
		ID:       fmt.Sprintf("d%06d", id),
		TLD:      tld,
		Provider: p,
	}
	// Providers run their own AS pools; map the big ones onto the head
	// ASes where plausible, otherwise a dedicated AS.
	as := ASWeight{ASN: 500000 + id, Name: p.Domain, MTAPool: 4}
	for i := 0; i < 2; i++ {
		d.MTAs = append(d.MTAs, g.mtaIn(as, TierProvider))
	}
	g.pop.Domains = append(g.pop.Domains, d)
}

// assignQueryCounts draws per-domain MX-query demand from a Zipf-like
// distribution, with local domains pinned to the extreme head
// (paper §6.3: byu.edu names dominated the top decile).
func (g *generator) assignQueryCounts() {
	zipf := rand.NewZipf(g.rng, 1.3, 4, 200_000)
	for _, d := range g.pop.Domains {
		d.QueryCount = 1 + int(zipf.Uint64())
		if d.Local {
			d.QueryCount = 500_000 + g.rng.Intn(500_000)
		}
		if d.Provider != nil {
			d.QueryCount += 50_000 // providers are high-demand
		}
	}
}

// assignAlexaRanks distributes popularity ranks: providers first, then
// random domains, matching the paper's membership counts.
func (g *generator) assignAlexaRanks() {
	if g.spec.AlexaTop1M == 0 {
		return
	}
	candidates := make([]*Domain, 0, len(g.pop.Domains))
	for _, d := range g.pop.Domains {
		if !d.Local {
			candidates = append(candidates, d)
		}
	}
	g.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	// Providers are all in the Top 1K.
	ranked := 0
	for _, d := range g.pop.Domains {
		if d.Provider != nil && ranked < g.spec.AlexaTop1K {
			d.AlexaRank = 1 + ranked*10
			ranked++
		}
	}
	for _, d := range candidates {
		if ranked >= g.spec.AlexaTop1M {
			break
		}
		if d.AlexaRank != 0 {
			continue
		}
		if ranked < g.spec.AlexaTop1K {
			d.AlexaRank = 1 + ranked*10
		} else {
			d.AlexaRank = 1001 + (ranked-g.spec.AlexaTop1K)*330
		}
		ranked++
	}
	// Upgrade MTA tiers from their best domain's rank.
	for _, d := range g.pop.Domains {
		tier := TierGeneral
		switch {
		case d.Provider != nil:
			tier = TierProvider
		case d.AlexaRank > 0 && d.AlexaRank <= 1000:
			tier = TierTop1K
		case d.AlexaRank > 0:
			tier = TierTop1M
		}
		for _, m := range d.MTAs {
			if tier > m.Tier {
				m.Tier = tier
			}
		}
	}
}

// Deciles splits domains into 10 groups by descending query count,
// excluding local domains (paper §6.3). Decile 1 holds the most
// queried domains.
func (p *Population) Deciles() [][]*Domain {
	var eligible []*Domain
	for _, d := range p.Domains {
		if !d.Local {
			eligible = append(eligible, d)
		}
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		return eligible[i].QueryCount > eligible[j].QueryCount
	})
	out := make([][]*Domain, 10)
	n := len(eligible)
	for i := 0; i < 10; i++ {
		lo, hi := i*n/10, (i+1)*n/10
		out[i] = eligible[lo:hi]
	}
	return out
}

// TLDShares returns the fraction of domains per TLD, descending.
func (p *Population) TLDShares() []TLDWeight {
	counts := make(map[string]int)
	for _, d := range p.Domains {
		counts[d.TLD]++
	}
	out := make([]TLDWeight, 0, len(counts))
	for tld, n := range counts {
		out = append(out, TLDWeight{TLD: tld, Weight: float64(n) / float64(len(p.Domains))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].TLD < out[j].TLD
	})
	return out
}

// ASShares returns, per AS, the fraction of domains having an MTA in
// that AS (the Table 3 statistic), descending.
func (p *Population) ASShares() []ASWeight {
	domainsInAS := make(map[int]int)
	names := make(map[int]string)
	for _, d := range p.Domains {
		seen := map[int]bool{}
		for _, m := range d.MTAs {
			if !seen[m.ASN] {
				seen[m.ASN] = true
				domainsInAS[m.ASN]++
				names[m.ASN] = m.ASName
			}
		}
	}
	out := make([]ASWeight, 0, len(domainsInAS))
	for asn, n := range domainsInAS {
		out = append(out, ASWeight{
			ASN: asn, Name: names[asn],
			DomainShare: float64(n) / float64(len(p.Domains)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DomainShare != out[j].DomainShare {
			return out[i].DomainShare > out[j].DomainShare
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// CountV4V6 returns how many MTAs have IPv4 and IPv6 addresses.
func (p *Population) CountV4V6() (v4, v6 int) {
	for _, m := range p.MTAs {
		if m.Addr4.IsValid() {
			v4++
		}
		if m.Addr6.IsValid() {
			v6++
		}
	}
	return v4, v6
}
