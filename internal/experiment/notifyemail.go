package experiment

import (
	"context"
	"sync"

	"sendervalid/internal/campaign"
	"sendervalid/internal/dataset"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/probe"
	"sendervalid/internal/spf"
)

// spfCompliant clears every violation knob, leaving timing options.
func spfCompliant(o spf.Options) spf.Options {
	o.LookupLimit = 0
	o.VoidLookupLimit = 0
	o.MXAddressLimit = 0
	o.IgnoreSyntaxErrors = false
	o.FollowMultipleRecords = false
	o.MXFallbackA = false
	o.Prefetch = false
	return o
}

// NotifyEmailRun is the raw outcome of the NotifyEmail experiment.
type NotifyEmailRun struct {
	// Deliveries records one entry per domain, keyed by domain ID.
	Deliveries map[string]*probe.Delivery
	// TimeScale is the world's protocol-delay multiplier; Figure 2
	// divides by it to report paper-equivalent seconds.
	TimeScale float64
}

// notifySubject and notifyBody are the notification every domain gets.
const (
	notifySubject = "Action required: vulnerability disclosed in your network"
	notifyBody    = "Dear operator,\n\nduring a measurement study we detected a " +
		"vulnerability in your network. Details and remediation " +
		"guidance follow.\n"
)

// RunNotifyEmail delivers one legitimate, DKIM-signed notification to
// every domain of the population (paper §4.6): standard MX selection,
// first responsive MTA only, real message content. The sender is a
// queueing MTA — one campaign task per domain, so a delivery round
// that ends in a 4xx or an unreachable exchanger is re-queued on the
// campaign's backoff schedule while a 5xx bounce is final — and it
// stops early when ctx is cancelled, returning the deliveries made so
// far. The run is not journaled: a replayed delivery could not recover
// AcceptedAt, which Figure 2 needs.
func RunNotifyEmail(ctx context.Context, w *World, workers int) *NotifyEmailRun {
	sender := &probe.Sender{
		Dialer:     w.Fabric.BoundDialer(SenderAddr4, SenderAddr6),
		Suffix:     DefaultNotifySuffix,
		HeloDomain: "mta.dns-lab.example",
		Signer:     w.Signer,
		ReplyTo:    DefaultContact,
		Timeout:    smtpTimeout,
	}
	run := &NotifyEmailRun{
		Deliveries: make(map[string]*probe.Delivery, len(w.Population.Domains)),
		TimeScale:  w.cfg.TimeScale,
	}
	res := w.senderResolver()
	domains := make(map[string]*dataset.Domain, len(w.Population.Domains))
	tasks := make([]campaign.Task, 0, len(w.Population.Domains))
	for _, d := range w.Population.Domains {
		domains[d.ID] = d
		tasks = append(tasks, campaign.Task{MTA: d.ID, Test: "notifyemail"})
	}

	var mu sync.Mutex
	c := campaign.New(campaign.Config{Workers: workers, Seed: w.cfg.Seed, Tracer: w.cfg.Tracer},
		func(ctx context.Context, t campaign.Task) error {
			d := domains[t.MTA]
			recipient := "operator@" + d.Name
			// Real mail-server selection: MX lookup, preference order,
			// address resolution (RFC 5321 §5.1).
			var delivery *probe.Delivery
			if targets, err := ResolveTargets(ctx, res, d.Name); err != nil {
				delivery = &probe.Delivery{Attempts: 1, Err: err}
			} else {
				delivery = sender.Send(ctx, d.ID, recipient, targets, notifySubject, notifyBody)
			}
			// The latest round's record stands, counting the rounds
			// before it.
			mu.Lock()
			if prev := run.Deliveries[d.ID]; prev != nil {
				delivery.Attempts += prev.Attempts
			}
			run.Deliveries[d.ID] = delivery
			mu.Unlock()
			return attemptErr(delivery.Err)
		})
	c.Add(tasks...)
	// A cancelled run is reported by its partial Deliveries.
	_ = c.Run(ctx)
	w.Quiesce()
	return run
}

// DomainValidation summarizes one domain's observed validation.
type DomainValidation struct {
	SPF   bool
	DKIM  bool
	DMARC bool
	// SPFComplete reports that address lookups completing the SPF
	// evaluation were observed; SPF && !SPFComplete is the paper's
	// "partial validator" (§6.1).
	SPFComplete bool
}

// ComboKey renders the validation combination as a Table 4 row key.
func (v DomainValidation) ComboKey() string {
	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "n"
	}
	return mark(v.SPF) + mark(v.DKIM) + mark(v.DMARC)
}

// NotifyEmailAnalysis aggregates the experiment into the paper's
// Tables 4–7 and Figure 2 inputs.
type NotifyEmailAnalysis struct {
	// Per-domain validation status (key: domain ID).
	Validation map[string]DomainValidation

	// Table 4: combination -> domain count (keys like "YYn"), of
	// SPFDomains().Tested domains.
	Combos map[string]int

	// SPFMTAs: the MTAs that accepted a notification and whose
	// domain's policy was fetched.
	SPFMTAs SimpleShare

	// partial counts the partial validators (§6.1): SPF-validating
	// domains with the TXT fetched and no completing lookups.
	partial int

	// Table 6 rows.
	Providers []ProviderRow

	// Table 7 rows. Its first tier, every domain, also holds the
	// population's counts that SPFDomains and PartialDomains read.
	Alexa AlexaBreakdown

	// Figure 2: per-domain averaged tSPF − tEmail, in seconds of
	// paper-equivalent time (sample / TimeScale).
	TimingSamples []float64
	// TimingFiltered counts samples dropped by the sub-granularity
	// filter (§6.2 dropped 0–1 s differences; scaled here).
	TimingFiltered int
}

// ProviderRow is one Table 6 line.
type ProviderRow struct {
	Domain   string
	SPF      bool
	DKIM     bool
	DMARC    bool
	Expected dataset.Provider
}

// SPFDomains is the population's share of domains whose policy was
// fetched.
func (a *NotifyEmailAnalysis) SPFDomains() SimpleShare {
	return a.Alexa[0].share(rowSPF)
}

// PartialDomains is the partial validators' (§6.1) share of the
// SPF-validating domains.
func (a *NotifyEmailAnalysis) PartialDomains() SimpleShare {
	return SimpleShare{Tested: a.SPFDomains().Observed, Observed: a.partial}
}

// AlexaBreakdown is Table 7, one tier per column: all domains, the
// Alexa top 1M and the top 1K.
type AlexaBreakdown [3]AlexaTier

// AlexaTier is one Table 7 column: the tier's domains, and how many of
// them validate each protocol, indexed by Table 7's rows.
type AlexaTier struct {
	Domains    int
	Validating [3]int
}

// Table 7's rows, in AlexaTier.Validating's order.
const (
	rowSPF = iota
	rowDKIM
	rowDMARC
)

// share is the tier's share of domains validating row's protocol.
func (t AlexaTier) share(row int) SimpleShare {
	return SimpleShare{Tested: t.Domains, Observed: t.Validating[row]}
}

// add counts one domain of the tier.
func (t *AlexaTier) add(v DomainValidation) {
	t.Domains++
	for row, ok := range [...]bool{rowSPF: v.SPF, rowDKIM: v.DKIM, rowDMARC: v.DMARC} {
		if ok {
			t.Validating[row]++
		}
	}
}

// validationOf reads a domain's Table 4 row off its observation (nil:
// no query was attributed to the domain).
func validationOf(o *fingerprint.DomainObservation) DomainValidation {
	if o == nil {
		return DomainValidation{}
	}
	return DomainValidation{SPF: o.FetchedPolicy(), SPFComplete: o.MTAAddr, DKIM: o.DKIMKey, DMARC: o.DMARC}
}

// NotifyEmail derives the NotifyEmail results from the fold of the
// query log's NotifyEmail zone and the delivery records.
func NotifyEmail(pop *dataset.Population, obs fingerprint.DomainObservations, run *NotifyEmailRun) *NotifyEmailAnalysis {
	a := &NotifyEmailAnalysis{
		Validation: make(map[string]DomainValidation),
		Combos:     make(map[string]int),
	}

	// A NotifyEmail query names the domain, not the MTA, so the delivery
	// record supplies the link for the MTA-level count: the MTA that
	// accepted a domain's message is SPF-validating when that domain's
	// policy was fetched.
	contacted, spfMTAs := make(map[string]bool), make(map[string]bool)
	providerRows := make(map[string]*ProviderRow)
	for _, d := range pop.Domains {
		o := obs[d.ID]
		v := validationOf(o)
		a.Validation[d.ID] = v
		delivery := run.Deliveries[d.ID]
		delivered := delivery != nil && delivery.Delivered
		if delivered {
			for _, m := range d.MTAs {
				if m.Addr4 == delivery.MTAAddr || m.Addr6 == delivery.MTAAddr {
					contacted[m.ID] = true
					if v.SPF {
						spfMTAs[m.ID] = true
					}
				}
			}
		}
		a.Combos[v.ComboKey()]++
		if v.SPF && !v.SPFComplete {
			a.partial++
		}

		if d.Provider != nil {
			providerRows[d.Name] = &ProviderRow{
				Domain: d.Name, SPF: v.SPF, DKIM: v.DKIM, DMARC: v.DMARC,
				Expected: *d.Provider,
			}
		}

		// Table 7 tallies: every domain is in the first tier.
		for tier, in := range [...]bool{true, d.AlexaRank > 0, d.AlexaRank > 0 && d.AlexaRank <= 1000} {
			if in {
				a.Alexa[tier].add(v)
			}
		}

		// Figure 2 timing: tSPF − tEmail, scaled back to paper seconds.
		if v.SPF && delivered {
			diff := o.PolicyTXTAt.Sub(delivery.AcceptedAt).Seconds() / run.TimeScale
			// The paper's 1 s timestamp-granularity filter, scaled: the
			// sub-resolution band around zero is dropped (§6.2).
			if diff > -1 && diff < 1 {
				a.TimingFiltered++
			} else {
				a.TimingSamples = append(a.TimingSamples, diff)
			}
		}
	}
	a.SPFMTAs = SimpleShare{Tested: len(contacted), Observed: len(spfMTAs)}

	// Order provider rows as Table 6 lists them.
	for i := range dataset.Providers {
		if row, ok := providerRows[dataset.Providers[i].Domain]; ok {
			a.Providers = append(a.Providers, *row)
		}
	}
	return a
}

// Figure2Buckets is the histogram of Figure 2: bucket edges at −30,
// −15, 0, 15, 30 seconds (paper-equivalent time).
type Figure2Buckets struct {
	LE30Neg, Neg15, Neg0, Pos15, Pos30, GE30 int
	Total                                    int
}

// Bucketize sorts timing samples into the Figure 2 histogram.
func Bucketize(samples []float64) Figure2Buckets {
	var b Figure2Buckets
	for _, s := range samples {
		switch {
		case s <= -30:
			b.LE30Neg++
		case s <= -15:
			b.Neg15++
		case s <= 0:
			b.Neg0++
		case s <= 15:
			b.Pos15++
		case s <= 30:
			b.Pos30++
		default:
			b.GE30++
		}
		b.Total++
	}
	return b
}
