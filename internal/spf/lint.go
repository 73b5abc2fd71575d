package spf

import (
	"context"
	"fmt"
	"strings"
)

// Severity grades a lint finding.
type Severity int

// Severities.
const (
	// Info findings are observations, not problems.
	Info Severity = iota
	// Warning findings degrade interoperability or safety.
	Warning
	// Error findings make the policy unusable (permerror for
	// compliant validators).
	Error
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Finding is one lint diagnostic.
type Finding struct {
	Severity Severity
	// Code is a stable identifier, e.g. "syntax", "lookup-limit".
	Code string
	// Term is the offending term, when applicable.
	Term string
	// Message explains the finding.
	Message string
}

func (f Finding) String() string {
	if f.Term != "" {
		return fmt.Sprintf("%s[%s] %s: %s", f.Severity, f.Code, f.Term, f.Message)
	}
	return fmt.Sprintf("%s[%s] %s", f.Severity, f.Code, f.Message)
}

// LintReport is the outcome of analyzing one domain's SPF deployment.
type LintReport struct {
	Domain   string
	Record   string
	Findings []Finding
	// Lookups is the worst-case count of DNS-querying terms reachable
	// from the policy (includes followed recursively).
	Lookups int
	// VoidRisk counts mechanisms that could contribute void lookups.
	VoidRisk int
}

// MaxSeverity returns the highest severity present, or -1 when clean.
func (r *LintReport) MaxSeverity() Severity {
	max := Severity(-1)
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// add appends a finding.
func (r *LintReport) add(sev Severity, code, term, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Severity: sev, Code: code, Term: term,
		Message: fmt.Sprintf(format, args...),
	})
}

// Linter statically analyzes SPF deployments the way the sender-side
// surveys the paper cites (§3: Mori et al., Gojmerac et al.) did:
// syntax errors, limit violations a policy forces on validators,
// deprecated mechanisms, and unsafe qualifiers. With a Resolver it
// follows include/redirect chains and counts worst-case lookups; with
// a nil Resolver it analyzes a single record in isolation.
type Linter struct {
	// Resolver retrieves published records; nil restricts analysis to
	// the record text.
	Resolver Resolver
}

// maxDepth bounds the linter's include/redirect recursion.
const maxDepth = 10

// LintRecord analyzes a single record without DNS traversal.
func (l *Linter) LintRecord(domain, txt string) *LintReport {
	r := &LintReport{Domain: domain, Record: txt}
	rec, err := Parse(txt)
	if err != nil {
		var serr *SyntaxError
		if ok := asSyntax(err, &serr); ok {
			r.add(Error, "syntax", serr.Term, "%s", serr.Reason)
		} else {
			r.add(Error, "syntax", "", "%v", err)
		}
	}
	if rec == nil {
		return r
	}
	l.lintTerms(r, rec)
	r.Lookups = localLookupCount(rec)
	if r.Lookups > DefaultLookupLimit {
		r.add(Error, "lookup-limit", "",
			"policy itself requires %d DNS-querying terms; the RFC 7208 limit is %d",
			r.Lookups, DefaultLookupLimit)
	}
	return r
}

// Lint analyzes the domain's published SPF deployment, following
// include and redirect targets.
func (l *Linter) Lint(ctx context.Context, domain string) (*LintReport, error) {
	if l.Resolver == nil {
		return nil, fmt.Errorf("spf: linter has no resolver")
	}
	r := &LintReport{Domain: domain}
	seen := map[string]bool{}
	lookups, err := l.traverse(ctx, r, domain, seen, 0, true)
	if err != nil {
		return nil, err
	}
	r.Lookups = lookups
	if lookups > DefaultLookupLimit {
		r.add(Error, "lookup-limit", "",
			"evaluating this policy requires up to %d DNS-querying terms; the limit is %d",
			lookups, DefaultLookupLimit)
	}
	if r.VoidRisk > DefaultVoidLookupLimit {
		r.add(Warning, "void-risk", "",
			"%d mechanisms may produce void lookups; validators permit %d",
			r.VoidRisk, DefaultVoidLookupLimit)
	}
	return r, nil
}

// traverse walks the include/redirect graph accumulating worst-case
// lookup counts and findings. top marks the root record (where some
// findings only apply).
func (l *Linter) traverse(ctx context.Context, r *LintReport, domain string, seen map[string]bool, depth int, top bool) (int, error) {
	key := strings.ToLower(strings.TrimSuffix(domain, "."))
	if seen[key] {
		r.add(Error, "include-loop", domain, "include/redirect cycle detected")
		return 0, nil
	}
	seen[key] = true
	if depth > maxDepth {
		r.add(Warning, "depth", domain, "include/redirect nesting exceeds %d", maxDepth)
		return 0, nil
	}

	txts, err := l.Resolver.LookupTXT(ctx, domain)
	if err != nil {
		return 0, fmt.Errorf("spf: lint %s: %w", domain, err)
	}
	var policies []string
	for _, txt := range txts {
		if IsSPF(txt) {
			policies = append(policies, txt)
		}
	}
	switch {
	case len(policies) == 0:
		if top {
			r.add(Info, "no-record", domain, "domain publishes no SPF record")
		} else {
			r.add(Error, "include-none", domain, "include/redirect target has no SPF record (permerror)")
		}
		return 0, nil
	case len(policies) > 1:
		r.add(Error, "multiple-records", domain,
			"%d SPF records published; validators must permerror", len(policies))
		return 0, nil
	}
	if top {
		r.Record = policies[0]
	}

	rec, perr := Parse(policies[0])
	if perr != nil {
		var serr *SyntaxError
		if asSyntax(perr, &serr) {
			r.add(Error, "syntax", serr.Term, "%s (at %s)", serr.Reason, domain)
		}
	}
	if rec == nil {
		return 0, nil
	}
	if top {
		l.lintTerms(r, rec)
	}

	total := 0
	for _, m := range rec.Mechanisms {
		if m.Kind.RequiresLookup() {
			total++
		}
		switch m.Kind {
		case MechA, MechExists:
			r.VoidRisk++
		case MechInclude:
			if strings.ContainsRune(m.Domain, '%') {
				r.add(Info, "macro-include", m.String(),
					"include target uses macros; lookup count depends on the sender")
				continue
			}
			sub, err := l.traverse(ctx, r, m.Domain, seen, depth+1, false)
			if err != nil {
				return 0, err
			}
			total += sub
		case MechMX:
			// Each MX can trigger up to 10 address lookups; count the
			// mechanism itself here and flag the amplification.
			r.VoidRisk++
		}
	}
	if rec.Redirect != "" && !strings.ContainsRune(rec.Redirect, '%') {
		total++ // the redirect consumes a lookup
		sub, err := l.traverse(ctx, r, rec.Redirect, seen, depth+1, false)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}

// lintTerms flags term-level issues on the root record.
func (l *Linter) lintTerms(r *LintReport, rec *Record) {
	sawAll := false
	for i, m := range rec.Mechanisms {
		if sawAll {
			r.add(Warning, "unreachable", m.String(),
				"mechanism after \"all\" can never be evaluated")
			continue
		}
		switch m.Kind {
		case MechAll:
			sawAll = true
			if m.Qualifier == QPass {
				r.add(Error, "pass-all", m.String(),
					"+all authorizes the whole Internet to send for this domain")
			}
			if m.Qualifier == QNeutral && i == len(rec.Mechanisms)-1 && rec.Redirect == "" {
				r.add(Info, "neutral-all", m.String(),
					"?all asserts nothing; consider ~all or -all")
			}
		case MechPTR:
			r.add(Warning, "ptr", m.String(),
				"ptr is slow, unreliable, and deprecated by RFC 7208 §5.5")
		}
	}
	if !sawAll && rec.Redirect == "" {
		r.add(Warning, "no-all", "",
			"record ends without an \"all\" mechanism or redirect; default result is neutral")
	}
	if sawAll && rec.Redirect != "" {
		r.add(Warning, "dead-redirect", "redirect="+rec.Redirect,
			"redirect is ignored because \"all\" always matches first")
	}
}

// localLookupCount counts DNS-querying terms in one record.
func localLookupCount(rec *Record) int {
	n := 0
	for _, m := range rec.Mechanisms {
		if m.Kind.RequiresLookup() {
			n++
		}
	}
	if rec.Redirect != "" {
		n++
	}
	return n
}

func asSyntax(err error, target **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*target = se
	}
	return ok
}
