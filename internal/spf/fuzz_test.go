package spf

import (
	"context"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// fuzzResolver serves arbitrary (possibly adversarial) TXT payloads
// for every name and cyclic data for other types.
type fuzzResolver struct {
	txt []string
}

func (r *fuzzResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	return r.txt, nil
}
func (r *fuzzResolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	return []netip.Addr{netip.MustParseAddr("192.0.2.1")}, nil
}
func (r *fuzzResolver) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	return []netip.Addr{netip.MustParseAddr("2001:db8::1")}, nil
}
func (r *fuzzResolver) LookupMX(ctx context.Context, name string) ([]MXRecord, error) {
	return []MXRecord{{Preference: 10, Host: name}}, nil
}
func (r *fuzzResolver) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	return []string{"host.example.com"}, nil
}

// TestParseNeverPanics feeds Parse random byte soup.
func TestParseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Parse("v=spf1 " + string(raw))
		_, _ = Parse(string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestCheckHostNeverPanicsOnRandomPolicies evaluates randomly
// assembled policies end to end. Every evaluation must terminate
// quickly (the limits guarantee this) and produce a legal result.
func TestCheckHostNeverPanicsOnRandomPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	terms := []string{
		"all", "-all", "~all", "?all", "+all",
		"a", "mx", "ptr", "a:%s", "mx:%s", "include:%s", "exists:%s",
		"ip4:192.0.2.0/24", "ip6:2001:db8::/32", "ip4:999.1.1.1",
		"redirect=%s", "exp=%s", "a/24", "a//64", "a/24//64",
		"exists:%{ir}.%s", "include:%{d2}.%s", "a:%{l}.%s",
		"ipv4:1.2.3.4", "bogus", "a:", "include:", "/24", "%%%",
		"a:very..broken..name", "mx:-", "exists:%{z}.x",
	}
	legal := map[Result]bool{
		None: true, Neutral: true, Pass: true, Fail: true,
		SoftFail: true, TempError: true, PermError: true,
	}
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(8)
		parts := make([]string, 0, n+1)
		parts = append(parts, "v=spf1")
		for j := 0; j < n; j++ {
			term := terms[rng.Intn(len(terms))]
			if strings.Contains(term, "%s") {
				term = strings.ReplaceAll(term, "%s", "x.example.com")
			}
			parts = append(parts, term)
		}
		policy := strings.Join(parts, " ")
		res := &fuzzResolver{txt: []string{policy}}
		c := &Checker{Resolver: res, Options: Options{Timeout: 2 * time.Second}}
		out := c.CheckHost(context.Background(), netip.MustParseAddr("192.0.2.1"),
			"rand.example.com", "u@rand.example.com", "helo.example.com")
		if !legal[out.Result] {
			t.Fatalf("policy %q produced illegal result %q", policy, out.Result)
		}
	}
}

// TestCheckHostTerminatesOnSelfReference verifies the lookup limit
// bounds pathological self-referential policies in both compliant and
// prefetching modes.
func TestCheckHostTerminatesOnSelfReference(t *testing.T) {
	res := &fuzzResolver{txt: []string{"v=spf1 include:rand.example.com a:rand.example.com ?all"}}
	for _, opts := range []Options{
		{Timeout: 3 * time.Second},
		{Timeout: 3 * time.Second, Prefetch: true},
	} {
		c := &Checker{Resolver: res, Options: opts}
		start := time.Now()
		out := c.CheckHost(context.Background(), netip.MustParseAddr("203.0.113.9"),
			"rand.example.com", "u@rand.example.com", "h.example.com")
		if out.Result != PermError {
			t.Errorf("self-referential policy: %s (prefetch=%v)", out.Result, opts.Prefetch)
		}
		if time.Since(start) > 2*time.Second {
			t.Errorf("evaluation took %v (prefetch=%v)", time.Since(start), opts.Prefetch)
		}
	}
}

// TestMacroExpansionNeverPanics feeds ExpandMacros random input.
func TestMacroExpansionNeverPanics(t *testing.T) {
	env := &MacroEnv{
		Sender: "u@example.com", Domain: "example.com",
		IP: netip.MustParseAddr("192.0.2.3"), Helo: "h.example.com",
	}
	f := func(raw []byte) bool {
		_, _ = ExpandMacros(string(raw), env, false)
		_, _ = ExpandMacros(string(raw), env, true)
		_, _ = ExpandDomain(string(raw), env)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// termSeparators are the white space Parse splits terms on
// (unicode.IsSpace, as strings.Fields): ASCII and Unicode alike.
var termSeparators = []string{" ", "\t", "  \t ", "\u0085", "\u00a0", "\u2028", "\n\r\v\f"}

// TestRecordStringStability: for every record that parses, rendering
// and reparsing is a fixed point, whatever white space separates its
// terms.
func TestRecordStringStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mechs := []string{
		"all", "a", "mx", "ptr", "ip4:192.0.2.1", "ip4:10.0.0.0/8",
		"ip6:2001:db8::1", "a:h.example.com", "mx:m.example.com/28",
		"include:i.example.com", "exists:%{ir}.e.example.com", "a/16//48",
	}
	quals := []string{"", "+", "-", "~", "?"}
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(6)
		var sb strings.Builder
		sb.WriteString("v=spf1 ")
		for j := 0; j < n; j++ {
			if j > 0 {
				sb.WriteString(termSeparators[rng.Intn(len(termSeparators))])
			}
			sb.WriteString(quals[rng.Intn(len(quals))] + mechs[rng.Intn(len(mechs))])
		}
		if rng.Intn(3) == 0 {
			sb.WriteString(termSeparators[rng.Intn(len(termSeparators))] + "redirect=r.example.com")
		}
		txt := sb.String()
		rec, err := Parse(txt)
		if err != nil {
			t.Fatalf("generated record rejected: %q: %v", txt, err)
		}
		if ref, _ := parseFields(txt); !reflect.DeepEqual(rec, ref) {
			t.Fatalf("Parse(%q) = %+v, strings.Fields splitting gives %+v", txt, rec, ref)
		}
		rendered := rec.String()
		rec2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering of %q unparsable: %q: %v", txt, rendered, err)
		}
		if rec2.String() != rendered {
			t.Fatalf("unstable rendering: %q -> %q -> %q", txt, rendered, rec2.String())
		}
	}
}

// parseFields is Parse over strings.Fields with no pre-sizing: the
// reference FuzzParse holds Parse to.
func parseFields(txt string) (*Record, error) {
	if !IsSPF(txt) {
		return nil, &SyntaxError{Term: txt, Reason: "missing v=spf1 version tag"}
	}
	rec := &Record{}
	var firstErr error
	for _, term := range strings.Fields(txt[len(Version):]) {
		var err error
		if rec.Mechanisms, err = rec.parseTerm(term, rec.Mechanisms); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return rec, firstErr
}

// FuzzParse: Parse gives the record and the error strings.Fields
// splitting gives, for any input — terms separated by tabs, NEL,
// no-break space or LINE SEPARATOR, modifiers only, invalid UTF-8.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"v=spf1 ip4:192.0.2.0/24 a:mail.example.com mx include:_spf.example.net exists:%{ir}.x.example.org -all",
		"v=spf1 a\tmx\t-all",
		"v=spf1 a\u0085mx\u00a0include:i.example.com\u2028~all",
		"v=spf1 \u2029redirect=r.example.com\u00a0exp=e.example.com",
		"v=spf1 unknown=x",
		"v=spf1",
		"v=spf1 ",
		"v=spf1 a:\xff.example.com \xfe -all",
		"v=spf1 bogus a:very..broken ip4: -all",
		"v=spf1\ta -all",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, txt string) {
		rec, err := Parse(txt)
		ref, refErr := parseFields(txt)
		if !reflect.DeepEqual(rec, ref) || !reflect.DeepEqual(err, refErr) {
			t.Errorf("Parse(%q) = %+v, %v; strings.Fields splitting gives %+v, %v", txt, rec, err, ref, refErr)
		}
	})
}

// TestParseAllocs pins Parse to two allocations: the record and its
// mechanisms, sized once.
func TestParseAllocs(t *testing.T) {
	const record = "v=spf1 ip4:192.0.2.0/24 a:mail.example.com mx include:_spf.example.net exists:%{ir}.x.example.org -all"
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Parse(record); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Parse: %v allocs/op, want ≤ 2", allocs)
	}
}

// TestLintNeverPanics feeds the record linter random soup.
func TestLintNeverPanics(t *testing.T) {
	l := &Linter{}
	f := func(raw []byte) bool {
		_ = l.LintRecord("x.example.com", "v=spf1 "+string(raw))
		_ = l.LintRecord("x.example.com", string(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUnlimitedValidatorStillBounded: even a validator configured to
// ignore every RFC limit must terminate on a self-including policy
// (the t18 shape) via the hard safety ceilings.
func TestUnlimitedValidatorStillBounded(t *testing.T) {
	res := &fuzzResolver{txt: []string{"v=spf1 include:loop.example.com ?all"}}
	c := &Checker{Resolver: res, Options: Options{
		LookupLimit: -1, VoidLookupLimit: -1, MXAddressLimit: -1,
		Timeout: 5 * time.Second,
	}}
	start := time.Now()
	out := c.CheckHost(context.Background(), netip.MustParseAddr("192.0.2.1"),
		"loop.example.com", "u@loop.example.com", "h.example.com")
	if out.Result != PermError {
		t.Errorf("unbounded loop: %s (%v)", out.Result, out.Err)
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("took %v", time.Since(start))
	}
	// Same with prefetch enabled.
	c.Options.Prefetch = true
	out = c.CheckHost(context.Background(), netip.MustParseAddr("192.0.2.1"),
		"loop.example.com", "u@loop.example.com", "h.example.com")
	if out.Result != PermError {
		t.Errorf("prefetch loop: %s (%v)", out.Result, out.Err)
	}
}
