// Package authres implements the Authentication-Results header field
// (RFC 8601), the standard channel through which a receiving MTA
// records its SPF, DKIM, and DMARC outcomes for downstream consumers
// (mail user agents, filters, and the forwarded-mail chains whose
// weaknesses the paper's related work studies).
package authres

import (
	"fmt"
	"strings"
)

// Result is one mechanism's outcome within the header.
type Result struct {
	// Method is "spf", "dkim", "dmarc", etc.
	Method string
	// Value is the outcome: pass, fail, none, neutral, softfail,
	// temperror, permerror.
	Value string
	// Reason optionally explains the outcome.
	Reason string
	// Properties are ptype.pname=value annotations, e.g.
	// "smtp.mailfrom" -> "user@example.com".
	Properties map[string]string
}

// Header is a parsed Authentication-Results field.
type Header struct {
	// AuthServID identifies the evaluating server.
	AuthServID string
	// Results lists each mechanism's outcome; empty means "none"
	// (no authentication was attempted).
	Results []Result
}

// Format renders the header value (without the "Authentication-Results:"
// field name).
func Format(h *Header) string {
	var sb strings.Builder
	sb.WriteString(h.AuthServID)
	if len(h.Results) == 0 {
		sb.WriteString("; none")
		return sb.String()
	}
	for _, r := range h.Results {
		fmt.Fprintf(&sb, "; %s=%s", r.Method, r.Value)
		if r.Reason != "" {
			fmt.Fprintf(&sb, " reason=%q", r.Reason)
		}
		for _, key := range sortedKeys(r.Properties) {
			fmt.Fprintf(&sb, " %s=%s", key, r.Properties[key])
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Parse parses a header value produced by Format (or a compatible
// implementation). Comments in parentheses are not supported; the
// measurement tooling never emits them.
func Parse(value string) (*Header, error) {
	parts := splitStatements(value)
	if len(parts) == 0 {
		return nil, fmt.Errorf("authres: empty header")
	}
	h := &Header{AuthServID: strings.TrimSpace(parts[0])}
	if h.AuthServID == "" {
		return nil, fmt.Errorf("authres: missing authserv-id")
	}
	for _, stmt := range parts[1:] {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" || stmt == "none" {
			continue
		}
		res, err := parseResult(stmt)
		if err != nil {
			return nil, err
		}
		h.Results = append(h.Results, res)
	}
	return h, nil
}

// splitStatements splits on ';' while respecting quoted strings.
func splitStatements(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ';' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	out = append(out, cur.String())
	return out
}

func parseResult(stmt string) (Result, error) {
	res := Result{Properties: make(map[string]string)}
	tokens := tokenize(stmt)
	if len(tokens) == 0 {
		return res, fmt.Errorf("authres: empty result statement")
	}
	method, value, ok := strings.Cut(tokens[0], "=")
	if !ok || method == "" || value == "" {
		return res, fmt.Errorf("authres: malformed method %q", tokens[0])
	}
	res.Method, res.Value = method, value
	for _, tok := range tokens[1:] {
		name, val, ok := strings.Cut(tok, "=")
		if !ok {
			return res, fmt.Errorf("authres: malformed property %q", tok)
		}
		val = strings.Trim(val, `"`)
		if name == "reason" {
			res.Reason = val
			continue
		}
		res.Properties[name] = val
	}
	if len(res.Properties) == 0 {
		res.Properties = nil
	}
	return res, nil
}

// tokenize splits on spaces outside quotes.
func tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}

// Lookup returns the first result for the given method, or nil.
func (h *Header) Lookup(method string) *Result {
	for i := range h.Results {
		if strings.EqualFold(h.Results[i].Method, method) {
			return &h.Results[i]
		}
	}
	return nil
}
