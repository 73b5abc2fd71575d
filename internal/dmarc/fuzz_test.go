package dmarc

import (
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// edgeNames are the case, trailing-dot and public-suffix edge cases
// the property targets are seeded with beside the golden names.
var edgeNames = []string{
	"", ".", "..", "example", "EXAMPLE.com", "Mail.Example.COM.", "mail.example.com..",
	"co.uk", "CO.UK.", "example.co.uk", "a.b.Example.co.uk.", "example.co.uk..",
	"k12.ca.us", "school.k12.ca.us", "a.school.k12.ca.us.",
	".example.com", "x..example.com", "a.b.c.d.e.f.example.org",
}

// seedNames returns every distinct query name the policy answers golden
// file lists (the names the synthesized test zone publishes, and the
// ones it does not), then edgeNames.
func seedNames(f *testing.F) []string {
	raw, err := os.ReadFile("../policy/testdata/answers.golden")
	if err != nil {
		f.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || strings.HasPrefix(line, "#") || seen[fields[1]] {
			continue
		}
		seen[fields[1]] = true
		names = append(names, fields[1])
	}
	if len(names) == 0 {
		f.Fatal("answers.golden lists no names")
	}
	return append(names, edgeNames...)
}

// FuzzOrganizationalDomainIdempotent: the organizational domain of an
// organizational domain is itself (RFC 7489 §3.2).
func FuzzOrganizationalDomainIdempotent(f *testing.F) {
	for _, name := range seedNames(f) {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		od := OrganizationalDomain(name)
		if again := OrganizationalDomain(od); again != od {
			t.Errorf("OrganizationalDomain(%q) = %q, whose organizational domain is %q", name, od, again)
		}
	})
}

// FuzzStrictAlignmentImpliesRelaxed: identifiers aligned in strict mode
// are aligned in relaxed mode (RFC 7489 §3.1).
func FuzzStrictAlignmentImpliesRelaxed(f *testing.F) {
	names := seedNames(f)
	for i, name := range names {
		f.Add(name, name)
		f.Add(strings.ToUpper(name), name+".")
		f.Add(name, names[(i+1)%len(names)])
	}
	f.Fuzz(func(t *testing.T, auth, from string) {
		if Aligned(auth, from, Strict) && !Aligned(auth, from, Relaxed) {
			t.Errorf("%q and %q align strictly but not relaxed", auth, from)
		}
	})
}

// FuzzParseTagOrder: only v= has a fixed place (RFC 7489 §6.3); the
// tags after it may come in any order. For a record Parse accepts
// whose tag names are distinct, a seeded shuffle of the tags after v=
// parses to an equal Record.
func FuzzParseTagOrder(f *testing.F) {
	raw, err := os.ReadFile("../policy/testdata/answers.golden")
	if err != nil {
		f.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if _, rec, ok := strings.Cut(line, `TXT "v=DMARC1`); ok && !seen[rec] {
			seen[rec] = true
			f.Add("v=DMARC1"+strings.TrimSuffix(rec, `"`), int64(len(seen)))
		}
	}
	for i, rec := range []string{
		"v=DMARC1; p=none; sp=quarantine; adkim=s; aspf=s; pct=50; rua=mailto:a@example.com,mailto:b@example.org; ruf=mailto:c@example.net; fo=1",
		"v=DMARC1;P=Reject;SP=none;ADKIM=S; pct=0;;",
		"v=DMARC1 ; p=quarantine ; rua= mailto:x@example.com , ; ri=86400",
		"v=DMARC1; p=reject; p=none",
		"v=DMARC1; p=reject; v=DMARC1",
	} {
		f.Add(rec, int64(i))
	}
	f.Fuzz(func(t *testing.T, txt string, seed int64) {
		want, err := Parse(txt)
		if err != nil {
			return
		}
		tags := strings.Split(txt, ";")
		names := map[string]bool{}
		for _, tag := range tags[1:] {
			if strings.TrimSpace(tag) == "" {
				continue
			}
			name, _, _ := strings.Cut(tag, "=")
			if name = strings.TrimSpace(strings.ToLower(name)); names[name] {
				return // a repeated tag: the last one wins, so order matters
			}
			names[name] = true
		}
		rest := tags[1:]
		rand.New(rand.NewSource(seed)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		shuffled := tags[0] + ";" + strings.Join(rest, ";")
		got, err := Parse(shuffled)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its shuffle %q fails: %v", txt, shuffled, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %+v, its shuffle %q = %+v", txt, want, shuffled, got)
		}
	})
}
