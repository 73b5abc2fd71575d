// Package spf implements the Sender Policy Framework (RFC 7208):
// policy parsing, macro expansion, and the check_host() evaluation
// function, including the DNS-lookup, void-lookup, and MX-address
// limits the specification imposes.
//
// Beyond strict compliance, the evaluator exposes knobs that reproduce
// the non-compliant validator behaviours observed in the CoNEXT 2021
// measurement study "Measuring Email Sender Validation in the Wild":
// ignoring syntax errors, exceeding lookup limits, falling back to
// A lookups after failed MX lookups, following one of multiple SPF
// records, and prefetching DNS lookups in parallel. These knobs let a
// simulated MTA population express the full behavioural spectrum the
// study measured.
package spf

// Result is an SPF evaluation result (RFC 7208 §2.6).
type Result string

// The seven SPF results.
const (
	// None means no SPF record was found or no checkable domain was
	// supplied.
	None Result = "none"
	// Neutral means the domain owner asserts nothing about the sender.
	Neutral Result = "neutral"
	// Pass means the client is authorized to send for the domain.
	Pass Result = "pass"
	// Fail means the client is explicitly not authorized.
	Fail Result = "fail"
	// SoftFail means the client is probably not authorized.
	SoftFail Result = "softfail"
	// TempError means a transient error (typically DNS) occurred.
	TempError Result = "temperror"
	// PermError means the published policy could not be correctly
	// interpreted.
	PermError Result = "permerror"
)

// Qualifier is a mechanism qualifier (RFC 7208 §4.6.2).
type Qualifier byte

// The four qualifiers.
const (
	QPass     Qualifier = '+'
	QFail     Qualifier = '-'
	QSoftFail Qualifier = '~'
	QNeutral  Qualifier = '?'
)

// Result maps the qualifier to the result returned when its mechanism
// matches.
func (q Qualifier) Result() Result {
	switch q {
	case QFail:
		return Fail
	case QSoftFail:
		return SoftFail
	case QNeutral:
		return Neutral
	default:
		return Pass
	}
}

// String returns the qualifier character.
func (q Qualifier) String() string { return string(q) }
