// Package jsonwire provides the reflection-free JSON primitives behind
// the repo's three hand-written JSONL record paths: the DNS query log
// codec (internal/dnsserver, both directions), the campaign journal's
// encoder (internal/campaign) and the bulk SPF pipeline
// (internal/bulkspf: tuple decoder, result-line encoder). Each format is defined by encoding/json struct
// tags, and files written by older builds must stay readable (and vice
// versa), so the primitives here reproduce encoding/json's bytes rather
// than define a fresh JSON dialect:
//
//   - AppendString escapes exactly like json.Marshal with HTML
//     escaping on (the json.Encoder default): control characters,
//     quote, backslash, '<', '>', '&', U+2028/U+2029, and invalid
//     UTF-8 coerced to U+FFFD.
//   - AppendTime mirrors time.Time's MarshalJSON (RFC 3339 with
//     nanoseconds); TryParseTime is the strict inverse.
//   - Cursor decodes canonical lines — no whitespace, plain ASCII
//     strings: the query-log encoder's, in wire order, and bulk SPF
//     tuples, keys in any order — and refuses everything else, which
//     each decoder hands to json.Unmarshal.
//   - LineReader is the JSONL read loop the three line-at-a-time
//     readers (journal, span file, bulk SPF tuples) share.
//
// The equivalence with encoding/json is pinned by the tests in this
// package and by fuzz tests in the three consumers.
package jsonwire

import (
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// safeByte reports whether ASCII byte c can appear unescaped in a
// JSON string, matching encoding/json's htmlSafeSet (HTML escaping
// on, the json.Encoder/json.Marshal default).
func safeByte(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf &&
		c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// AppendString appends s as a quoted JSON string, escaped exactly as
// json.Marshal would (HTML escaping included).
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeByte(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Other control characters, plus <, >, & under HTML
				// escaping.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// U+2028 (LINE SEPARATOR) and U+2029 (PARAGRAPH SEPARATOR)
		// are escaped unconditionally, as encoding/json does for
		// JavaScript embedding safety.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendTime appends t as a quoted RFC 3339 timestamp with
// nanoseconds, matching time.Time.MarshalJSON for any timestamp a
// log can legitimately contain (year in [0,9999], whole-minute zone
// offset — both always true for times produced by time.Now or by
// TryParseTime).
func AppendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// TryParseTime parses a quoted-string *content* (no surrounding quotes,
// escapes untouched) as strict RFC 3339 without allocating for UTC
// timestamps — a clone of time's internal parseRFC3339 (minus the
// local-zone reuse, which affects only the Location identity, not the
// instant or offset). ok=false means "not strict", not "invalid":
// time.Time's UnmarshalJSON accepts laxer forms, so callers fall back
// to encoding/json.
func TryParseTime(s []byte) (time.Time, bool) {
	ok := true
	parseUint := func(b []byte, min, max int) (x int) {
		for _, c := range b {
			if c < '0' || '9' < c {
				ok = false
				return min
			}
			x = x*10 + int(c) - '0'
		}
		if x < min || max < x {
			ok = false
			return min
		}
		return x
	}

	if len(s) < len("2006-01-02T15:04:05") {
		return time.Time{}, false
	}
	year := parseUint(s[0:4], 0, 9999)
	month := parseUint(s[5:7], 1, 12)
	day := parseUint(s[8:10], 1, daysIn(month, year))
	hour := parseUint(s[11:13], 0, 23)
	min := parseUint(s[14:16], 0, 59)
	sec := parseUint(s[17:19], 0, 59)
	if !ok || !(s[4] == '-' && s[7] == '-' && s[10] == 'T' && s[13] == ':' && s[16] == ':') {
		return time.Time{}, false
	}
	s = s[19:]

	// Fractional second: '.', at least one digit; digits beyond the
	// ninth only truncate, as in the stdlib.
	var nsec int
	if len(s) >= 2 && s[0] == '.' && '0' <= s[1] && s[1] <= '9' {
		n := 2
		for ; n < len(s) && '0' <= s[n] && s[n] <= '9'; n++ {
		}
		digits := n - 1
		if digits > 9 {
			digits = 9
		}
		for i := 1; i <= digits; i++ {
			nsec = nsec*10 + int(s[i]-'0')
		}
		for i := digits; i < 9; i++ {
			nsec *= 10
		}
		s = s[n:]
	}

	if len(s) == 1 && s[0] == 'Z' {
		return time.Date(year, time.Month(month), day, hour, min, sec, nsec, time.UTC), true
	}
	if len(s) != len("-07:00") {
		return time.Time{}, false
	}
	hr := parseUint(s[1:3], 0, 23)
	mm := parseUint(s[4:6], 0, 59)
	if !ok || !((s[0] == '-' || s[0] == '+') && s[3] == ':') {
		return time.Time{}, false
	}
	zoneOffset := (hr*60 + mm) * 60
	if s[0] == '-' {
		zoneOffset = -zoneOffset
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, nsec,
		time.FixedZone("", zoneOffset)), true
}

// daysIn returns the number of days in the given month, accounting
// for leap years.
func daysIn(month, year int) int {
	switch month {
	case 4, 6, 9, 11:
		return 30
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 31
}
