package dns

import "testing"

// TestTypeSpellingsRoundTrip holds the one spelling table to both of
// its readers over every type: ParseType reads back what AppendType
// writes, and AppendType writes what String returns.
func TestTypeSpellingsRoundTrip(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		typ := Type(i)
		b := AppendType(nil, typ)
		if got, ok := ParseType(b); !ok || got != typ {
			t.Errorf("ParseType(%q) = %d, %v; want %d", b, got, ok, typ)
		}
		if s := typ.String(); string(b) != s {
			t.Errorf("AppendType(%d) = %q, String() = %q", i, b, s)
		}
	}
}

// TestTypeSpellingZeroAlloc pins the spelling table's allocation-free
// paths: AppendType into a reused buffer and ParseType for any type,
// String for a type or RCODE that has a mnemonic.
func TestTypeSpellingZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for _, typ := range []Type{TypeTXT, TypeNone, TypeANY, 251, 65535} {
			buf = AppendType(buf[:0], typ)
			if got, ok := ParseType(buf); !ok || got != typ {
				t.Fatalf("ParseType(%q) = %d, %v", buf, got, ok)
			}
		}
		if TypeAAAA.String() != "AAAA" || RCodeNameError.String() != "NXDOMAIN" {
			t.Fatal("wrong mnemonic")
		}
	})
	if allocs != 0 {
		t.Errorf("type spelling: %v allocs/op, want 0", allocs)
	}
}
