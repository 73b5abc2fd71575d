package spf

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// MacroEnv carries the evaluation context consumed by SPF macro
// expansion (RFC 7208 §7.2).
type MacroEnv struct {
	// Sender is the full sender address ("user@domain"), from MAIL
	// FROM or synthesized as postmaster@helo.
	Sender string
	// Domain is the domain currently being evaluated.
	Domain string
	// IP is the connecting client address.
	IP netip.Addr
	// Helo is the HELO/EHLO domain.
	Helo string
	// Receiver is the validating host's name, for %{r}. Optional.
	Receiver string
	// Validated is the PTR-validated client name for %{p}. Optional;
	// "unknown" is substituted when empty, as the RFC recommends.
	Validated string
}

// senderLocal returns the local part of the sender, defaulting to
// "postmaster" per RFC 7208 §4.3.
func (e *MacroEnv) senderLocal() string {
	if i := strings.LastIndexByte(e.Sender, '@'); i > 0 {
		return e.Sender[:i]
	}
	return "postmaster"
}

// senderDomain returns the domain part of the sender.
func (e *MacroEnv) senderDomain() string {
	if i := strings.LastIndexByte(e.Sender, '@'); i >= 0 {
		return e.Sender[i+1:]
	}
	return e.Sender
}

// ExpandMacros expands the macro-string s in the given environment.
// exp selects explanation-string mode, which additionally permits the
// c, r, and t macros and the %{...} URL-escaping variants are applied.
// A string with no '%' — most domain-specs — is its own expansion and
// is returned as it is, without a copy.
func ExpandMacros(s string, env *MacroEnv, exp bool) (string, error) {
	if strings.IndexByte(s, '%') < 0 {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		if i+1 >= len(s) {
			return "", &SyntaxError{Term: s, Reason: "trailing %"}
		}
		i++
		switch s[i] {
		case '%':
			sb.WriteByte('%')
		case '_':
			sb.WriteByte(' ')
		case '-':
			sb.WriteString("%20")
		case '{':
			end := strings.IndexByte(s[i:], '}')
			if end < 0 {
				return "", &SyntaxError{Term: s, Reason: "unterminated macro"}
			}
			expanded, err := expandOne(s[i+1:i+end], env, exp)
			if err != nil {
				return "", err
			}
			sb.WriteString(expanded)
			i += end
		default:
			return "", &SyntaxError{Term: s, Reason: "invalid macro escape %" + string(s[i])}
		}
	}
	return sb.String(), nil
}

// expandOne expands the body of one %{...} macro.
func expandOne(body string, env *MacroEnv, exp bool) (string, error) {
	if body == "" {
		return "", &SyntaxError{Term: body, Reason: "empty macro"}
	}
	letter := body[0]
	rest := body[1:]

	urlEscape := letter >= 'A' && letter <= 'Z'
	if urlEscape {
		letter += 'a' - 'A'
	}

	var value string
	switch letter {
	case 's':
		value = env.Sender
	case 'l':
		value = env.senderLocal()
	case 'o':
		value = env.senderDomain()
	case 'd':
		value = env.Domain
	case 'i':
		value = macroAddr(env.IP)
	case 'p':
		if env.Validated != "" {
			value = env.Validated
		} else {
			value = "unknown"
		}
	case 'v':
		if env.IP.Is4() || env.IP.Is4In6() {
			value = "in-addr"
		} else {
			value = "ip6"
		}
	case 'h':
		value = env.Helo
	case 'c':
		if !exp {
			return "", &SyntaxError{Term: body, Reason: "c macro only valid in exp"}
		}
		value = env.IP.String()
	case 'r':
		if !exp {
			return "", &SyntaxError{Term: body, Reason: "r macro only valid in exp"}
		}
		value = env.Receiver
		if value == "" {
			value = "unknown"
		}
	case 't':
		if !exp {
			return "", &SyntaxError{Term: body, Reason: "t macro only valid in exp"}
		}
		value = "0" // deterministic: timestamps are injected by callers
	default:
		return "", &SyntaxError{Term: body, Reason: "unknown macro letter " + string(letter)}
	}

	// Parse transformers: optional digit count, optional 'r', optional
	// delimiter set.
	digits := 0
	for len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
		digits = digits*10 + int(rest[0]-'0')
		rest = rest[1:]
	}
	reverse := false
	if len(rest) > 0 && (rest[0] == 'r' || rest[0] == 'R') {
		reverse = true
		rest = rest[1:]
	}
	delims := rest
	if delims == "" {
		delims = "."
	}
	for _, d := range delims {
		if !strings.ContainsRune(".-+,/_=", d) {
			return "", &SyntaxError{Term: body, Reason: "invalid delimiter " + string(d)}
		}
	}

	parts := strings.FieldsFunc(value, func(r rune) bool {
		return strings.ContainsRune(delims, r)
	})
	if len(parts) == 0 {
		parts = []string{""}
	}
	if reverse {
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
	}
	if digits > 0 && digits < len(parts) {
		parts = parts[len(parts)-digits:]
	}
	out := strings.Join(parts, ".")
	if urlEscape {
		out = urlEscapeUnreserved(out)
	}
	return out, nil
}

// macroAddr renders an address for the %{i} macro: dotted quad for
// IPv4, dot-separated lowercase nibbles for IPv6 (RFC 7208 §7.3).
func macroAddr(ip netip.Addr) string {
	if ip.Is4() || ip.Is4In6() {
		return ip.Unmap().String()
	}
	raw := ip.As16()
	nibbles := make([]string, 0, 32)
	for _, b := range raw {
		nibbles = append(nibbles, strconv.FormatUint(uint64(b>>4), 16),
			strconv.FormatUint(uint64(b&0xF), 16))
	}
	return strings.Join(nibbles, ".")
}

// urlEscapeUnreserved percent-encodes everything outside the RFC 3986
// unreserved set.
func urlEscapeUnreserved(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_', c == '~':
			sb.WriteByte(c)
		default:
			fmt.Fprintf(&sb, "%%%02X", c)
		}
	}
	return sb.String()
}

// ExpandDomain expands a domain-spec for mechanism evaluation,
// defaulting to the current domain when spec is empty, and truncating
// an over-long result to fewer than 253 octets by dropping leading
// labels, as RFC 7208 §7.3 requires.
func ExpandDomain(spec string, env *MacroEnv) (string, error) {
	if spec == "" {
		return env.Domain, nil
	}
	expanded, err := ExpandMacros(spec, env, false)
	if err != nil {
		return "", err
	}
	expanded = strings.TrimSuffix(expanded, ".")
	for len(expanded) > 253 {
		i := strings.IndexByte(expanded, '.')
		if i < 0 {
			break
		}
		expanded = expanded[i+1:]
	}
	return expanded, nil
}
