package dmarc

import (
	"os"
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
