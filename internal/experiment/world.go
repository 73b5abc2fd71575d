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

// WorldConfig parameterizes a simulated world.
type WorldConfig struct {
	// Seed drives profile sampling (combined with each MTA's own
	// ProfileSeed from the dataset).
	Seed int64
	// Rates is the behaviour-trait distribution for TierGeneral MTAs.
	Rates mtasim.Rates
	// TimeScale multiplies protocol shaping delays (1.0 = paper
	// timing; tests use ~0.01 or less).
	TimeScale float64
	// EnableIPv6DNS binds the authoritative server's [::1] endpoint so
	// the IPv6 test policy is exercisable.
	EnableIPv6DNS bool
	// SPFTimeout and DNSTimeout bound the MTAs' validation work.
	SPFTimeout time.Duration
	DNSTimeout time.Duration
	// PostDataDelayMax is the maximum extra delay a post-data
	// validator waits after accepting a message (Figure 2's positive
	// tail); per-MTA values are sampled uniformly from (0, max].
	PostDataDelayMax time.Duration
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
// server (both zones), the network fabric, and a fleet of simulated
// MTAs built from a dataset population.
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
	if cfg.SPFTimeout == 0 {
		cfg.SPFTimeout = 10 * time.Second
	}
	if cfg.DNSTimeout == 0 {
		cfg.DNSTimeout = 3 * time.Second
	}
	if cfg.PostDataDelayMax == 0 {
		cfg.PostDataDelayMax = time.Duration(float64(25*time.Second) * cfg.TimeScale)
	}

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
	log := &dnsserver.QueryLog{}
	srv := &dnsserver.Server{
		// The study's two zones plus the recipient-domain MX/A records,
		// served (unlogged) so the sending MTA performs real mail-server
		// selection.
		Zones:  append(policy.StudyZones(env, notifyCfg), recipientZone(pop)),
		Log:    log,
		Tracer: cfg.Tracer,
	}
	if cfg.EnableIPv6DNS {
		srv.Addr6 = "[::1]:0"
	}
	addr, err := srv.Start()
	if err != nil && cfg.EnableIPv6DNS {
		// No IPv6 loopback on this host: fall back to IPv4-only DNS
		// (the IPv6 test policy then reports zero retrievals).
		srv.Addr6 = ""
		addr, err = srv.Start()
	}
	if err != nil {
		return nil, err
	}

	w := &World{
		Population: pop,
		Fabric:     netsim.NewFabric(),
		DNS:        srv,
		Log:        log,
		DNSAddr:    addr.String(),
		MTAs:       make(map[string]*mtasim.MTA, len(pop.MTAs)),
		Signer:     &dkim.Signer{Selector: "exp", Key: priv},
		cfg:        cfg,
	}
	if a6 := srv.Addr6Bound(); a6 != nil {
		w.DNSAddr6 = a6.String()
	}

	providerFlags := providerFlagsByMTA(pop)
	for _, info := range pop.MTAs {
		prof := w.sampleProfile(info, providerFlags[info.ID])
		mta := mtasim.New(mtasim.Config{
			ID:                 info.ID,
			Hostname:           info.Hostname,
			Addr4:              info.Addr4,
			Addr6:              info.Addr6,
			Profile:            prof,
			Fabric:             w.Fabric,
			DNSAddr:            w.DNSAddr,
			DNSAddr6:           w.DNSAddr6,
			SPFTimeout:         cfg.SPFTimeout,
			DNSTimeout:         cfg.DNSTimeout,
			PostDataDelay:      w.postDataDelay(info.ProfileSeed),
			BlacklistedSources: []netip.Addr{ProbeAddr4, ProbeAddr6},
			Metrics:            cfg.FleetMetrics,
		})
		if err := mta.Start(); err != nil {
			w.Close()
			return nil, err
		}
		w.MTAs[info.ID] = mta
	}
	return w, nil
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

// sampleProfile draws the MTA's behaviour from tier-adjusted rates.
// The profile is a stable function of the MTA's identity; WorldConfig
// fields only matter through Rates, tier, and the drift probability.
func (w *World) sampleProfile(info *dataset.MTAInfo, provider *dataset.Provider) mtasim.Profile {
	seed := info.ProfileSeed
	if w.cfg.ProfileDrift > 0 {
		driftRng := mrand.New(mrand.NewSource(info.ProfileSeed ^ w.cfg.Seed ^ 0x9e3779b9))
		if driftRng.Float64() < w.cfg.ProfileDrift {
			seed = info.ProfileSeed ^ w.cfg.Seed
		}
	}
	rng := mrand.New(mrand.NewSource(seed))
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
// delay in (0, PostDataDelayMax].
func (w *World) postDataDelay(seed int64) time.Duration {
	rng := mrand.New(mrand.NewSource(seed*31 + 7))
	return time.Duration(1 + rng.Int63n(int64(w.cfg.PostDataDelayMax)))
}

// Close stops every MTA and the DNS server.
func (w *World) Close() {
	for _, m := range w.MTAs {
		m.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
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
