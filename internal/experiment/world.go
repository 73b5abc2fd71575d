// Package experiment implements the study's three experiment drivers —
// NotifyEmail (legitimate DKIM-signed deliveries), NotifyMX and
// TwoWeekMX (39-policy probes that disconnect before DATA content) —
// together with the analyses that regenerate every table and figure of
// the paper's evaluation from the authoritative server's query log.
package experiment

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"math"
	mrand "math/rand"
	"net/netip"
	"time"

	"sendervalid/internal/dataset"
	"sendervalid/internal/dkim"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/mtasim"
	"sendervalid/internal/netsim"
	"sendervalid/internal/policy"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/trace"
)

// Default zone suffixes (the paper used spf-test.dns-lab.org and
// dsav-mail.dns-lab.org; this reproduction uses .example names).
const (
	DefaultTestSuffix   = "spf-test.dns-lab.example."
	DefaultNotifySuffix = "dsav-mail.dns-lab.example."
	DefaultContact      = "research-contact@dns-lab.example"
)

// Addresses of the experiment's own infrastructure on the fabric.
var (
	// SenderAddr4/6 are the legitimate sending MTA's addresses — the
	// ones the NotifyEmail SPF policies authorize.
	SenderAddr4 = netip.MustParseAddr("203.0.113.10")
	SenderAddr6 = netip.MustParseAddr("2001:db8:1::10")
	// ProbeAddr4/6 are the probing client's addresses — the ones that
	// end up on blacklists.
	ProbeAddr4 = netip.MustParseAddr("203.0.113.66")
	ProbeAddr6 = netip.MustParseAddr("2001:db8:1::66")
)

// The authoritative DNS server's endpoints on the fabric: UDP and TCP
// each, on the same address and port.
var (
	dnsAddr4 = netip.MustParseAddrPort("192.0.2.53:53")
	dnsAddr6 = netip.MustParseAddrPort("[2001:db8:53::53]:53")
)

// Every duration the world owns, in paper time. Two kinds:
//
// The delays the measurement reads are scaled by WorldConfig.TimeScale,
// in BuildWorld: postDataDelayMax here, and the policy views' shaping
// (policy.LimitsDelay's 800 ms, the 100 ms include chain), which
// policy.Env and policy.NotifyEmailConfig scale by the same factor.
//
// The give-up budgets are never scaled. On virtual time (a
// testing/synctest bubble at TimeScale 1.0) they have their paper
// values, so they fire only where the paper's would; on the wall clock
// at a small TimeScale they never fire. A budget scaled to wall time
// fires whenever the host is busy, and the report then depends on the
// host: a 60 ms SPF budget at TimeScale 0.001 cut a t02 tree short in
// one run of two and moved Figure 5.
//
// Cache lifetimes run on the world's clock as well: every resolver the
// world builds gets its TimeScale (resolver.Config.TimeScale), so an
// answer cached for its TTL (60 s for the test policies, 300 s for the
// NotifyEmail names, 30 s for an empty answer) expires after that much
// paper time, as the delays above do, and once an evaluation is over
// its answers leave memory. They are not give-up budgets: nothing
// waits on one, so a busy host can at most expire an entry early on
// the paper clock, and the re-query fetches the same answer from the
// same server.
const (
	// postDataDelayMax bounds a post-DATA validator's wait between
	// accepting a message and validating it, which makes Figure 2's
	// positive tail: 25 s keeps it inside the ±30 s the paper finds
	// 91% of differences within. Per-MTA values are drawn uniformly
	// from (0, max].
	postDataDelayMax = 25 * time.Second

	// spfBudget bounds one check_host() evaluation. RFC 7208 §4.6.4
	// asks for at least 20 s, and the 28% of validators that run t02's
	// whole tree (Figure 5) need more than its 46 × 800 ms.
	spfBudget = 60 * time.Second
	// dnsTimeout bounds one DNS exchange of an MTA's or the sender's
	// resolver. RFC 1035 §4.2.1 leaves retransmission to the resolver;
	// 3 s is far inside spfBudget, so a lost datagram costs an
	// evaluation one exchange, not its budget.
	dnsTimeout = 3 * time.Second
	// smtpTimeout bounds each SMTP exchange of the probe and of the
	// NotifyEmail sender. RFC 5321 §4.5.3.2 gives a client minutes per
	// command; a MAIL-time validator replies only once it has
	// evaluated, so the wait must at least outlast spfBudget.
	smtpTimeout = 90 * time.Second
	// shutdownGrace is how long Close waits for the DNS server's
	// in-flight exchanges: host housekeeping, not part of the study.
	shutdownGrace = 5 * time.Second
)

// WorldConfig parameterizes a simulated world.
type WorldConfig struct {
	// Seed drives profile sampling (combined with each MTA's own
	// ProfileSeed from the dataset).
	Seed int64
	// Rates is the behaviour-trait distribution for TierGeneral MTAs.
	Rates mtasim.Rates
	// TimeScale multiplies the delays the measurement reads and the
	// resolver caches' TTLs (1.0 = paper timing; zero means 0.001; a
	// negative, NaN or infinite scale is an error). The give-up
	// budgets are never scaled (see the table above).
	TimeScale float64
	// EnableIPv6DNS serves the authoritative server's IPv6 endpoint on
	// the fabric too, so the IPv6 test policy is exercisable.
	EnableIPv6DNS bool
	// ProfileDrift is the probability that an MTA's behaviour profile
	// is resampled for this world instead of keeping its stable
	// per-MTA identity. An MTA's profile is otherwise a deterministic
	// function of the dataset, so rebuilding a world over the same
	// population reproduces the same fleet — the paper compared the
	// same MTAs across experiments months apart, observing a small
	// amount of behavioural change (§6.2); ~0.05 models that drift.
	ProfileDrift float64
	// FleetMetrics, when non-nil, aggregates telemetry across the
	// whole MTA fleet (see World.RegisterMetrics).
	FleetMetrics *mtasim.Metrics
	// Tracer, when non-nil, gives the world's authoritative DNS server
	// a root span per served query (attributed by the handler).
	Tracer *trace.Tracer
}

// World is a running simulated environment: the authoritative DNS
// server (both zones), the network fabric that carries its queries and
// every SMTP session, and a fleet of simulated MTAs built from a
// dataset population.
type World struct {
	Population *dataset.Population
	Fabric     *netsim.Fabric
	DNS        *dnsserver.Server
	Log        *dnsserver.QueryLog
	DNSAddr    string
	DNSAddr6   string
	// MTAs indexes the fleet by dataset MTA ID.
	MTAs map[string]*mtasim.MTA
	// Signer is the NotifyEmail DKIM signer (Ed25519 for speed; the
	// paper's deployment used RSA, which the dkim package equally
	// supports).
	Signer *dkim.Signer

	cfg WorldConfig
}

// BuildWorld constructs and starts a world for the population.
func BuildWorld(pop *dataset.Population, cfg WorldConfig) (*World, error) {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 0.001
	}
	// NaN, a negative or infinite scale, or one that carries
	// postDataDelayMax past time.Duration's range fails here.
	if !(cfg.TimeScale > 0 && float64(postDataDelayMax)*cfg.TimeScale < math.MaxInt64) {
		return nil, fmt.Errorf("experiment: TimeScale %v is out of range (want a positive finite scale)", cfg.TimeScale)
	}
	// The one place a paper-time delay becomes the world's; the policy
	// views scale their shaping by the same factor. A scale that takes
	// the bound below 1 ns gets 1 ns.
	postDataMax := max(time.Duration(float64(postDataDelayMax)*cfg.TimeScale), 1)

	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("experiment: keygen: %w", err)
	}
	keyTXT, err := dkim.FormatKeyRecord(pub)
	if err != nil {
		return nil, err
	}

	env := &policy.Env{Suffix: DefaultTestSuffix, TimeScale: cfg.TimeScale}
	notifyCfg := &policy.NotifyEmailConfig{
		Suffix:        DefaultNotifySuffix,
		SenderV4:      SenderAddr4,
		SenderV6:      SenderAddr6,
		DKIMSelector:  "exp",
		DKIMKeyRecord: keyTXT,
		Contact:       DefaultContact,
		TimeScale:     cfg.TimeScale,
	}
	fabric := netsim.NewFabric()
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		// The study's two zones plus the recipient-domain MX/A records,
		// served (unlogged) so the sending MTA performs real mail-server
		// selection.
		Zones:  append(policy.StudyZones(env, notifyCfg), recipientZone(pop)),
		Log:    log,
		Tracer: cfg.Tracer,
	}
	dnsAddrs := []netip.AddrPort{dnsAddr4}
	if cfg.EnableIPv6DNS {
		dnsAddrs = append(dnsAddrs, dnsAddr6)
	}
	if err := srv.Serve(fabric, dnsAddrs...); err != nil {
		return nil, err
	}

	w := &World{
		Population: pop,
		Fabric:     fabric,
		DNS:        srv,
		Log:        log,
		DNSAddr:    dnsAddr4.String(),
		MTAs:       make(map[string]*mtasim.MTA, len(pop.MTAs)),
		Signer:     &dkim.Signer{Selector: "exp", Key: priv},
		cfg:        cfg,
	}
	if cfg.EnableIPv6DNS {
		w.DNSAddr6 = dnsAddr6.String()
	}

	providerFlags := providerFlagsByMTA(pop)
	// One generator for the whole fleet, reseeded for each draw.
	rng := mrand.New(mrand.NewSource(0))
	for _, info := range pop.MTAs {
		mta := mtasim.New(w.mtaConfig(rng, info, providerFlags[info.ID], postDataMax))
		if err := mta.Start(); err != nil {
			w.Close()
			return nil, err
		}
		w.MTAs[info.ID] = mta
	}
	return w, nil
}

// mtaConfig draws the MTA's profile and, for a post-DATA SPF
// validator, its post-DATA delay from rng, and returns the MTA's
// simulator configuration.
func (w *World) mtaConfig(rng *mrand.Rand, info *dataset.MTAInfo, provider *dataset.Provider, postDataMax time.Duration) mtasim.Config {
	prof := w.sampleProfile(rng, info, provider)
	var delay time.Duration
	if prof.ValidatesSPF && prof.Phase == mtasim.PostData {
		delay = postDataDelay(rng, info.ProfileSeed, postDataMax)
	}
	return mtasim.Config{
		ID:                 info.ID,
		Hostname:           info.Hostname,
		Addr4:              info.Addr4,
		Addr6:              info.Addr6,
		Profile:            prof,
		Fabric:             w.Fabric,
		DNSAddr:            w.DNSAddr,
		DNSAddr6:           w.DNSAddr6,
		SPFTimeout:         spfBudget,
		DNSTimeout:         dnsTimeout,
		TimeScale:          w.cfg.TimeScale,
		PostDataDelay:      delay,
		BlacklistedSources: []netip.Addr{ProbeAddr4, ProbeAddr6},
		Metrics:            w.cfg.FleetMetrics,
	}
}

// RegisterMetrics publishes the world's serving-side telemetry — the
// authoritative DNS server's families and, when WorldConfig.
// FleetMetrics was set, the MTA fleet totals — under the given
// constant labels. Sequential worlds in one process (cmd/experiment's
// three phases) share a registry by labeling each registration with a
// distinct experiment= label.
func (w *World) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	w.DNS.RegisterMetrics(reg, labels...)
	if w.cfg.FleetMetrics != nil {
		w.cfg.FleetMetrics.RegisterMetrics(reg, labels...)
	}
}

// providerFlagsByMTA maps MTA IDs to the pinned Table 6 validation
// flags of the provider domain they serve, if any.
func providerFlagsByMTA(pop *dataset.Population) map[string]*dataset.Provider {
	out := make(map[string]*dataset.Provider)
	for _, d := range pop.Domains {
		if d.Provider == nil {
			continue
		}
		for _, m := range d.MTAs {
			out[m.ID] = d.Provider
		}
	}
	return out
}

// sampleProfile draws the MTA's behaviour from tier-adjusted rates,
// reseeding rng for each draw, so the draws are those of fresh sources
// at the same seeds. The profile is a stable function of the MTA's
// identity; WorldConfig fields only matter through Rates, tier, and
// the drift probability.
func (w *World) sampleProfile(rng *mrand.Rand, info *dataset.MTAInfo, provider *dataset.Provider) mtasim.Profile {
	seed := info.ProfileSeed
	if w.cfg.ProfileDrift > 0 {
		rng.Seed(info.ProfileSeed ^ w.cfg.Seed ^ 0x9e3779b9)
		if rng.Float64() < w.cfg.ProfileDrift {
			seed = info.ProfileSeed ^ w.cfg.Seed
		}
	}
	rng.Seed(seed)
	rates := TierRates(w.cfg.Rates, info.Tier)
	prof := rates.Sample(rng)
	if provider != nil {
		// Table 6 providers have known validation status; they run
		// compliant, real-time validators and accept any recipient.
		prof.ValidatesSPF = provider.SPF
		prof.ValidatesDKIM = provider.DKIM
		prof.ValidatesDMARC = provider.DMARC
		prof.EnforceDMARC = provider.DMARC
		prof.Phase = mtasim.AtData
		prof.PartialSPF = false
		prof.RejectProbe = false
		prof.AcceptAnyUser = true
		prof.WhitelistPostmaster = false
		prof.SPFOptions = spfCompliant(prof.SPFOptions)
	}
	// The NotifyEmail recipients are legitimate mailboxes; "operator"
	// stands in for them in the simulation.
	prof.ValidUsers = append(prof.ValidUsers, "operator")
	return prof
}

// postDataDelay derives a deterministic per-MTA post-data validation
// delay in (0, max], reseeding rng. mtaConfig draws one only for a
// post-DATA SPF validator, the one kind of MTA that waits one; every
// other MTA's is zero.
func postDataDelay(rng *mrand.Rand, seed int64, max time.Duration) time.Duration {
	rng.Seed(seed*31 + 7)
	return time.Duration(1 + rng.Int63n(int64(max)))
}

// Close stops every MTA and the DNS server.
func (w *World) Close() {
	for _, m := range w.MTAs {
		m.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	_ = w.DNS.Shutdown(ctx)
}

// Quiesce waits for all asynchronous (post-data) validations.
func (w *World) Quiesce() {
	for _, m := range w.MTAs {
		m.Wait()
	}
}

// TierRates adjusts the base rates for an MTA tier: Alexa-ranked
// domains validate at the higher rates of Table 7.
func TierRates(base mtasim.Rates, tier dataset.Tier) mtasim.Rates {
	r := base
	switch tier {
	case dataset.TierTop1M:
		// Table 7: SPF 88%, DKIM 84%, DMARC 67% among Top-1M members.
		r.ComboAll = 640
		r.ComboSPFDKIM = 180
		r.ComboNone = 90
		r.ComboSPFOnly = 50
		r.ComboDKIMOnly = 20
		r.ComboDMARCOnly = 10
		r.ComboSPFDMARC = 10
		r.ComboDKIMDMARC = 0
	case dataset.TierTop1K:
		// Table 7: SPF 93%, DKIM 90%, DMARC 79% among Top-1K members.
		r.ComboAll = 780
		r.ComboSPFDKIM = 120
		r.ComboNone = 40
		r.ComboSPFOnly = 30
		r.ComboDKIMOnly = 20
		r.ComboDMARCOnly = 5
		r.ComboSPFDMARC = 5
		r.ComboDKIMDMARC = 0
	}
	return r
}

// NotifyRates returns the trait rates for the NotifyEmail/NotifyMX
// population. The NotifyEmail domains are operator contact addresses
// at ordinary organizations: recipients mostly exist, postmaster
// whitelisting is uncommon, and by the June 2021 NotifyMX run the
// probing client was widely blacklisted (§6.2).
func NotifyRates() mtasim.Rates {
	r := mtasim.PaperRates()
	r.AcceptAnyUser = 0.92
	r.WhitelistPostmaster = 0.30
	r.RejectPostmaster = 0.02
	return r
}

// TwoWeekRates returns the trait rates for the TwoWeekMX population:
// provider-hosted domains where guessed usernames rarely exist and
// postmaster is commonly exempted from sender validation (§6.3).
func TwoWeekRates() mtasim.Rates {
	r := mtasim.PaperRates()
	r.AcceptAnyUser = 0.08
	r.WhitelistPostmaster = 0.80
	r.RejectPostmaster = 0.064
	return r
}
