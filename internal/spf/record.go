package spf

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// MechanismKind identifies an SPF mechanism (RFC 7208 §5).
type MechanismKind string

// The eight mechanisms.
const (
	MechAll     MechanismKind = "all"
	MechInclude MechanismKind = "include"
	MechA       MechanismKind = "a"
	MechMX      MechanismKind = "mx"
	MechPTR     MechanismKind = "ptr"
	MechIP4     MechanismKind = "ip4"
	MechIP6     MechanismKind = "ip6"
	MechExists  MechanismKind = "exists"
)

// RequiresLookup reports whether evaluating the mechanism consumes one
// of the 10 permitted DNS-querying terms (RFC 7208 §4.6.4).
func (k MechanismKind) RequiresLookup() bool {
	switch k {
	case MechInclude, MechA, MechMX, MechPTR, MechExists:
		return true
	}
	return false
}

// Mechanism is one directive of an SPF record.
type Mechanism struct {
	Qualifier Qualifier
	Kind      MechanismKind
	// Domain is the domain-spec argument, possibly containing macros.
	// Empty means the current domain (for a, mx, ptr).
	Domain string
	// IP is the literal address argument of ip4/ip6, in string form to
	// defer parsing until evaluation.
	IP string
	// Prefix4 and Prefix6 are CIDR prefix lengths; -1 means absent.
	Prefix4 int
	Prefix6 int
}

// String renders the mechanism in record syntax.
func (m Mechanism) String() string {
	var sb strings.Builder
	if m.Qualifier != QPass {
		sb.WriteByte(byte(m.Qualifier))
	}
	sb.WriteString(string(m.Kind))
	switch m.Kind {
	case MechIP4, MechIP6:
		sb.WriteByte(':')
		sb.WriteString(m.IP)
	case MechInclude, MechExists:
		sb.WriteByte(':')
		sb.WriteString(m.Domain)
	case MechA, MechMX, MechPTR:
		if m.Domain != "" {
			sb.WriteByte(':')
			sb.WriteString(m.Domain)
		}
	}
	if m.Prefix4 >= 0 && m.Kind != MechIP4 && m.Kind != MechIP6 {
		fmt.Fprintf(&sb, "/%d", m.Prefix4)
	}
	if m.Prefix6 >= 0 && m.Kind != MechIP4 && m.Kind != MechIP6 {
		fmt.Fprintf(&sb, "//%d", m.Prefix6)
	}
	return sb.String()
}

// Record is a parsed SPF record.
type Record struct {
	Mechanisms []Mechanism
	// Redirect is the redirect= modifier target, or empty.
	Redirect string
	// Exp is the exp= modifier target, or empty.
	Exp string
	// UnknownModifiers preserves modifiers this package does not
	// interpret, which RFC 7208 requires to be ignored.
	UnknownModifiers []string
}

// SyntaxError describes a malformed term in an SPF record. Per
// RFC 7208 §4.6, any syntax error anywhere in the record must yield
// permerror — though the measurement study found validators that do
// not comply (§7.3 of the paper).
type SyntaxError struct {
	Term   string
	Reason string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("spf: syntax error in term %q: %s", e.Term, e.Reason)
}

// Version is the version tag that introduces every SPF record.
const Version = "v=spf1"

// IsSPF reports whether a TXT payload is an SPF record (RFC 7208
// §4.5): the version tag followed by a space or end of string.
func IsSPF(txt string) bool {
	if !strings.HasPrefix(txt, Version) {
		return false
	}
	return len(txt) == len(Version) || txt[len(Version)] == ' '
}

// Parse parses an SPF record. The returned record may be partially
// populated when err is non-nil, which allows non-compliant evaluation
// modes to keep going past syntax errors; err is a *SyntaxError (the
// first one encountered) in that case.
func Parse(txt string) (*Record, error) {
	if !IsSPF(txt) {
		return nil, &SyntaxError{Term: txt, Reason: "missing v=spf1 version tag"}
	}
	// The mechanisms collect in an array on the stack that holds most
	// records and are copied out once, sized: parsing costs one
	// allocation for the record and one for its mechanisms.
	rec := &Record{}
	var buf [16]Mechanism
	mechs := buf[:0]
	var firstErr error
	for term := range strings.FieldsSeq(txt[len(Version):]) {
		var err error
		if mechs, err = rec.parseTerm(term, mechs); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if len(mechs) > 0 {
		rec.Mechanisms = slices.Clone(mechs)
	}
	return rec, firstErr
}

// parseTerm parses one term: a modifier is recorded in rec, and a
// mechanism is appended to mechs, which is returned.
func (rec *Record) parseTerm(term string, mechs []Mechanism) ([]Mechanism, error) {
	if name, value, ok := splitModifier(term); ok {
		switch strings.ToLower(name) {
		case "redirect":
			if value == "" {
				return mechs, &SyntaxError{Term: term, Reason: "redirect with empty target"}
			}
			rec.Redirect = value
		case "exp":
			if value == "" {
				return mechs, &SyntaxError{Term: term, Reason: "exp with empty target"}
			}
			rec.Exp = value
		default:
			rec.UnknownModifiers = append(rec.UnknownModifiers, term)
		}
		return mechs, nil
	}
	m, err := parseMechanism(term)
	if err != nil {
		return mechs, err
	}
	return append(mechs, m), nil
}

// parseMechanism parses a term that is not a modifier.
func parseMechanism(term string) (Mechanism, error) {
	m := Mechanism{Qualifier: QPass, Prefix4: -1, Prefix6: -1}
	rest := term
	if len(rest) > 0 {
		switch Qualifier(rest[0]) {
		case QPass, QFail, QSoftFail, QNeutral:
			m.Qualifier = Qualifier(rest[0])
			rest = rest[1:]
		}
	}

	name, arg, hasArg := strings.Cut(rest, ":")
	// Dual-CIDR notation can appear without a colon argument, e.g.
	// "a/24" or "mx/24//64".
	if !hasArg {
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
	}
	kind := MechanismKind(strings.ToLower(name))
	m.Kind = kind

	switch kind {
	case MechIP4, MechIP6:
		// The whole argument, slash included, is an address literal.
		if !hasArg || arg == "" {
			return m, &SyntaxError{Term: term, Reason: string(kind) + " requires an address"}
		}
		m.IP = arg
		return m, nil
	}

	// For the remaining mechanisms a trailing /n[//m] is dual-CIDR.
	if !hasArg {
		if cidr := rest[len(name):]; cidr != "" {
			if err := m.parseCIDR(cidr, term); err != nil {
				return m, err
			}
		}
	} else if i := strings.IndexByte(arg, '/'); i >= 0 {
		cidr := arg[i:]
		arg = arg[:i]
		if err := m.parseCIDR(cidr, term); err != nil {
			return m, err
		}
	}

	switch kind {
	case MechAll:
		if hasArg {
			return m, &SyntaxError{Term: term, Reason: "all takes no argument"}
		}
	case MechInclude, MechExists:
		if !hasArg || arg == "" {
			return m, &SyntaxError{Term: term, Reason: string(kind) + " requires a domain"}
		}
		m.Domain = arg
	case MechA, MechMX, MechPTR:
		m.Domain = arg
	default:
		return m, &SyntaxError{Term: term, Reason: "unknown mechanism"}
	}
	return m, nil
}

// parseCIDR parses the dual-CIDR suffix "/n", "//n", or "/n//m".
func (m *Mechanism) parseCIDR(s, term string) error {
	if rest, ok := strings.CutPrefix(s, "//"); ok {
		return m.parsePrefix6(rest, term)
	}
	s = strings.TrimPrefix(s, "/")
	v4, v6, dual := strings.Cut(s, "//")
	n, err := strconv.Atoi(v4)
	if err != nil || n < 0 || n > 32 {
		return &SyntaxError{Term: term, Reason: "invalid IPv4 prefix length"}
	}
	m.Prefix4 = n
	if dual {
		return m.parsePrefix6(v6, term)
	}
	return nil
}

func (m *Mechanism) parsePrefix6(s, term string) error {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 128 {
		return &SyntaxError{Term: term, Reason: "invalid IPv6 prefix length"}
	}
	m.Prefix6 = n
	return nil
}

// splitModifier reports whether term is a modifier (name=value with a
// legal modifier name) and returns its parts.
func splitModifier(term string) (name, value string, ok bool) {
	i := strings.IndexByte(term, '=')
	if i <= 0 {
		return "", "", false
	}
	name = term[:i]
	for _, c := range name {
		isAlnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !isAlnum && c != '-' && c != '_' && c != '.' {
			return "", "", false
		}
	}
	return name, term[i+1:], true
}

// String renders the record in canonical syntax.
func (rec *Record) String() string {
	parts := []string{Version}
	for _, m := range rec.Mechanisms {
		parts = append(parts, m.String())
	}
	if rec.Redirect != "" {
		parts = append(parts, "redirect="+rec.Redirect)
	}
	if rec.Exp != "" {
		parts = append(parts, "exp="+rec.Exp)
	}
	parts = append(parts, rec.UnknownModifiers...)
	return strings.Join(parts, " ")
}
