// Package mtasim simulates receiving mail transfer agents. Each
// simulated MTA is a real SMTP server (over the netsim fabric) wired
// to a real stub resolver and the full SPF/DKIM/DMARC validation
// stack; its behaviour — whether it validates, when, how compliantly,
// and how it treats probes — is governed by a Profile. Populations of
// MTAs with profile distributions calibrated to the paper's reported
// rates reproduce the measurement study's observations through the
// actual protocol path rather than by arithmetic.
package mtasim

import (
	"math/rand"

	"sendervalid/internal/resolver"
	"sendervalid/internal/spf"
)

// ValidationPhase says when an MTA performs sender validation relative
// to the SMTP dialogue (paper §6.2: 83% of domains validated SPF
// before delivery completed; 17% only after).
type ValidationPhase int

// Validation phases.
const (
	// AtMail validates as soon as MAIL FROM arrives.
	AtMail ValidationPhase = iota
	// AtData validates when the DATA command arrives, before content.
	AtData
	// PostData validates only after a complete message is accepted —
	// such MTAs show no validation activity to probes that disconnect
	// before sending content.
	PostData
)

// Profile is the behavioural genome of one simulated MTA.
type Profile struct {
	// ValidatesSPF, ValidatesDKIM, ValidatesDMARC select which
	// mechanisms the MTA checks at all (Table 4 combinations).
	ValidatesSPF   bool
	ValidatesDKIM  bool
	ValidatesDMARC bool

	// Phase is when SPF validation runs.
	Phase ValidationPhase

	// PartialSPF fetches the SPF policy TXT record but never evaluates
	// it — the 3.0% of domains the paper found starting but not
	// finishing validation (§6.1).
	PartialSPF bool

	// ChecksHELO additionally validates the HELO identity (5.0% of
	// validating MTAs, §7.3); per the paper every such MTA continued
	// to the MAIL identity regardless of the HELO outcome.
	ChecksHELO bool

	// SPFOptions carries the compliance knobs (lookup limits, syntax
	// tolerance, prefetch parallelism, …).
	SPFOptions spf.Options

	// TempfailSessions greets each client's first N sessions with a
	// 421 transient reply before behaving normally — greylisting, the
	// common real-world defence that forces legitimate senders to
	// retry. Campaigns exercise their retry discipline against it.
	TempfailSessions int

	// RejectProbe rejects sessions at connect time with a
	// spam/blacklist message, as 28% of NotifyMX MTAs did (§6.2).
	RejectProbe bool
	// RejectText is the rejection message ("spam" or "blacklist").
	RejectText string

	// WhitelistPostmaster skips sender validation when the recipient
	// is postmaster (§6.3: a major suppressor of observed validation).
	WhitelistPostmaster bool

	// AcceptAnyUser accepts every RCPT; otherwise only ValidUsers and
	// postmaster are accepted.
	AcceptAnyUser bool
	// ValidUsers lists accepted local parts besides postmaster.
	ValidUsers []string
	// RejectPostmaster additionally rejects postmaster (6.4% of
	// TwoWeekMX MTAs returned invalid-recipient errors, §6.3).
	RejectPostmaster bool

	// EnforceSPF rejects mail at SMTP time when SPF fails hard.
	EnforceSPF bool
	// EnforceDMARC applies the DMARC disposition to the message reply.
	EnforceDMARC bool

	// ResolverTransport restricts the MTA's resolver address families
	// (51% of MTAs could not retrieve IPv6-only policies, §7.3).
	ResolverTransport resolver.TransportPolicy
	// ResolverNoTCP disables the resolver's TCP retry (2 of 1336
	// resolvers, §7.3).
	ResolverNoTCP bool
}

// Rates holds the probability of each behavioural trait, used to
// sample profiles for a population. All values are probabilities in
// [0, 1]. The defaults (PaperRates) are calibrated to the paper.
type Rates struct {
	// Table-4 joint validation combinations (normalized internally).
	ComboAll       float64 // SPF+DKIM+DMARC
	ComboSPFDKIM   float64
	ComboNone      float64
	ComboSPFOnly   float64
	ComboDKIMOnly  float64
	ComboDMARCOnly float64
	ComboSPFDMARC  float64
	ComboDKIMDMARC float64

	PostDataValidation float64 // of SPF validators
	PartialSPF         float64 // of SPF validators
	ChecksHELO         float64 // of SPF validators
	Parallel           float64 // prefetching lookups (1 - serial rate)

	IgnoreLookupLimit   float64 // runs the full 46-lookup tree
	PartialLimit        float64 // stops somewhere between 10 and 46
	IgnoreVoidLimit     float64 // exceeds two void lookups
	AllVoids            float64 // of void-limit violators: does all five
	MXFallbackA         float64
	FollowOneOfMultiple float64
	SyntaxTolerantMain  float64
	IgnoreMXLimit       float64 // all 20 MX targets
	PartialMXLimit      float64 // between 10 and 20

	RejectProbe         float64 // spam/blacklist rejection of probes
	RejectBlacklist     float64 // of rejectors: cite "blacklist" not "spam"
	WhitelistPostmaster float64
	AcceptAnyUser       float64
	RejectPostmaster    float64

	EnforceSPF    float64 // of validators with DMARC
	IPv4Only      float64 // resolver cannot reach IPv6-only servers
	ResolverNoTCP float64
}

// PaperRates returns trait probabilities calibrated to the paper's
// reported numbers (sections noted inline).
func PaperRates() Rates {
	return Rates{
		// Table 4 (counts normalized): 14056/6322/4456/2156/1436/211/169/0.
		ComboAll:       14056,
		ComboSPFDKIM:   6322,
		ComboNone:      4456,
		ComboSPFOnly:   2156,
		ComboDKIMOnly:  1436,
		ComboDMARCOnly: 211,
		ComboSPFDMARC:  169,
		ComboDKIMDMARC: 0,

		PostDataValidation: 0.17, // §6.2, Figure 2
		PartialSPF:         0.03, // §6.1
		ChecksHELO:         0.05, // §7.3
		Parallel:           0.03, // §7.1 (97% serial)

		IgnoreLookupLimit:   0.28,  // §7.2 (154/553 ran all 46)
		PartialLimit:        0.11,  // §7.2 remainder between 10 and 46
		IgnoreVoidLimit:     0.97,  // §7.3 (1193/1229)
		AllVoids:            0.66,  // §7.3: 64% of all = 66% of violators
		MXFallbackA:         0.14,  // §7.3
		FollowOneOfMultiple: 0.23,  // §7.3
		SyntaxTolerantMain:  0.055, // §7.3
		IgnoreMXLimit:       0.64,  // §7.3 (all 20)
		PartialMXLimit:      0.283, // §7.3 remainder over 10 but under 20

		RejectProbe:         0.28,  // §6.2
		RejectBlacklist:     0.10,  // 872 of 8675 rejections cite blacklist
		WhitelistPostmaster: 0.72,  // §6.3 calibration (see DESIGN.md)
		AcceptAnyUser:       0.31,  // §6.3: postmaster needed for 69%
		RejectPostmaster:    0.064, // §6.3

		EnforceSPF:    0.5,
		IPv4Only:      0.51,   // §7.3: only 49% retrieved IPv6-only policy
		ResolverNoTCP: 0.0015, // §7.3: 2 of 1336
	}
}

// Sample draws one Profile from the rates using rng.
func (r Rates) Sample(rng *rand.Rand) Profile {
	p := Profile{}

	// Validation combination (Table 4).
	weights := []float64{r.ComboAll, r.ComboSPFDKIM, r.ComboNone, r.ComboSPFOnly,
		r.ComboDKIMOnly, r.ComboDMARCOnly, r.ComboSPFDMARC, r.ComboDKIMDMARC}
	switch weightedIndex(rng, weights) {
	case 0:
		p.ValidatesSPF, p.ValidatesDKIM, p.ValidatesDMARC = true, true, true
	case 1:
		p.ValidatesSPF, p.ValidatesDKIM = true, true
	case 2: // none
	case 3:
		p.ValidatesSPF = true
	case 4:
		p.ValidatesDKIM = true
	case 5:
		p.ValidatesDMARC = true
	case 6:
		p.ValidatesSPF, p.ValidatesDMARC = true, true
	case 7:
		p.ValidatesDKIM, p.ValidatesDMARC = true, true
	}

	if p.ValidatesSPF {
		if rng.Float64() < r.PostDataValidation {
			p.Phase = PostData
		} else if rng.Float64() < 0.5 {
			p.Phase = AtMail
		} else {
			p.Phase = AtData
		}
		p.PartialSPF = rng.Float64() < r.PartialSPF
		// HELO checking runs alongside MAIL validation (the paper saw
		// every HELO checker proceed to the MAIL identity, §7.3), so
		// the trait is sampled independently of the validation phase.
		p.ChecksHELO = rng.Float64() < r.ChecksHELO && !p.PartialSPF
		p.SPFOptions.Prefetch = rng.Float64() < r.Parallel

		switch x := rng.Float64(); {
		case x < r.IgnoreLookupLimit:
			p.SPFOptions.LookupLimit = -1
		case x < r.IgnoreLookupLimit+r.PartialLimit:
			p.SPFOptions.LookupLimit = 11 + rng.Intn(34) // between 11 and 44
		}
		if rng.Float64() < r.IgnoreVoidLimit {
			if rng.Float64() < r.AllVoids {
				p.SPFOptions.VoidLookupLimit = -1
			} else {
				p.SPFOptions.VoidLookupLimit = 3 + rng.Intn(2) // 3 or 4
			}
		}
		p.SPFOptions.MXFallbackA = rng.Float64() < r.MXFallbackA
		p.SPFOptions.FollowMultipleRecords = rng.Float64() < r.FollowOneOfMultiple
		// A validator tolerant of main-policy errors is tolerant of
		// child errors too.
		if rng.Float64() < r.SyntaxTolerantMain {
			p.SPFOptions.IgnoreSyntaxErrors = true
		}
		switch x := rng.Float64(); {
		case x < r.IgnoreMXLimit:
			p.SPFOptions.MXAddressLimit = -1
		case x < r.IgnoreMXLimit+r.PartialMXLimit:
			p.SPFOptions.MXAddressLimit = 11 + rng.Intn(9) // 11–19
		}
		p.EnforceSPF = rng.Float64() < r.EnforceSPF
	}

	p.RejectProbe = rng.Float64() < r.RejectProbe
	if p.RejectProbe {
		p.RejectText = "5.7.1 Message rejected as spam"
		if rng.Float64() < r.RejectBlacklist {
			p.RejectText = "5.7.1 Client host blocked: IP found on blacklist"
		}
	}
	p.WhitelistPostmaster = rng.Float64() < r.WhitelistPostmaster
	p.AcceptAnyUser = rng.Float64() < r.AcceptAnyUser
	p.RejectPostmaster = rng.Float64() < r.RejectPostmaster
	p.EnforceDMARC = p.ValidatesDMARC

	if rng.Float64() < r.IPv4Only {
		p.ResolverTransport = resolver.IPv4Only
	}
	p.ResolverNoTCP = rng.Float64() < r.ResolverNoTCP
	return p
}

// weightedIndex picks an index proportionally to weights.
func weightedIndex(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
