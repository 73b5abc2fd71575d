package dmarc

import (
	"context"
	"strings"

	"sendervalid/internal/dkim"
	"sendervalid/internal/spf"
)

// Result is a DMARC evaluation result.
type Result string

// Evaluation results.
const (
	ResultPass      Result = "pass"
	ResultFail      Result = "fail"
	ResultNone      Result = "none" // no policy published
	ResultTempError Result = "temperror"
	ResultPermError Result = "permerror"
)

// Evaluation is the outcome of applying DMARC to one message.
type Evaluation struct {
	Result Result
	// Disposition is the action the policy requests on failure
	// (None when Result is pass or none).
	Disposition Disposition
	// SPFAligned and DKIMAligned report which mechanism(s) produced
	// the pass.
	SPFAligned  bool
	DKIMAligned bool
	// Err carries detail for error results.
	Err error
}

// Evaluator applies DMARC policy.
type Evaluator struct {
	// Resolver fetches _dmarc TXT records.
	Resolver dkim.TXTResolver
}

// Discover fetches the DMARC record for fromDomain, falling back to
// the organizational domain (RFC 7489 §6.6.3). It returns the record,
// whether the fallback was used, and any transient error.
func (e *Evaluator) Discover(ctx context.Context, fromDomain string) (*Record, bool, error) {
	rec, err := e.query(ctx, fromDomain)
	if err != nil {
		return nil, false, err
	}
	if rec != nil {
		return rec, false, nil
	}
	org := OrganizationalDomain(fromDomain)
	if strings.EqualFold(org, strings.TrimSuffix(fromDomain, ".")) {
		return nil, false, nil
	}
	rec, err = e.query(ctx, org)
	if err != nil {
		return nil, false, err
	}
	return rec, rec != nil, nil
}

func (e *Evaluator) query(ctx context.Context, domain string) (*Record, error) {
	txts, err := e.Resolver.LookupTXT(ctx, "_dmarc."+strings.TrimSuffix(domain, "."))
	if err != nil {
		return nil, err
	}
	var records []*Record
	for _, txt := range txts {
		if !IsDMARC(txt) {
			continue
		}
		rec, err := Parse(txt)
		if err != nil {
			continue // unparsable candidates are ignored per §6.6.3
		}
		records = append(records, rec)
	}
	if len(records) != 1 {
		// Zero or multiple records both mean "no policy".
		return nil, nil
	}
	return records[0], nil
}

// Inputs carries the authentication outcomes DMARC consumes.
type Inputs struct {
	// FromDomain is the RFC5322.From header domain.
	FromDomain string
	// SPFResult and SPFDomain are the SPF outcome and the domain it
	// authenticated (the MAIL FROM domain, or HELO for a null path).
	SPFResult spf.Result
	SPFDomain string
	// DKIMResult and DKIMDomain are the DKIM outcome and its d= domain.
	DKIMResult dkim.Result
	DKIMDomain string
}

// Evaluate discovers the policy for in.FromDomain and applies the
// DMARC pass rule: at least one of SPF/DKIM passed and aligns.
func (e *Evaluator) Evaluate(ctx context.Context, in Inputs) *Evaluation {
	out := &Evaluation{Disposition: None}
	if in.FromDomain == "" {
		out.Result = ResultPermError
		return out
	}
	rec, fallback, err := e.Discover(ctx, in.FromDomain)
	if err != nil {
		out.Result, out.Err = ResultTempError, err
		return out
	}
	if rec == nil {
		out.Result = ResultNone
		return out
	}
	out.SPFAligned = in.SPFResult == spf.Pass &&
		Aligned(in.SPFDomain, in.FromDomain, rec.SPFAlignment)
	out.DKIMAligned = in.DKIMResult == dkim.ResultPass &&
		Aligned(in.DKIMDomain, in.FromDomain, rec.DKIMAlignment)

	if out.SPFAligned || out.DKIMAligned {
		out.Result = ResultPass
		return out
	}
	out.Result = ResultFail
	out.Disposition = rec.PolicyFor(fallback)
	if rec.Percent == 0 {
		// pct=0 samples no message in (§6.6.4), so a failing one gets
		// the next-weaker disposition. The evaluator draws no sample:
		// under any other pct the message counts as sampled in.
		switch out.Disposition {
		case Reject:
			out.Disposition = Quarantine
		case Quarantine:
			out.Disposition = None
		}
	}
	return out
}
