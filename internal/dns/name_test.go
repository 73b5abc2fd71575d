package dns

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"example.com", "example.com."},
		{"example.com.", "example.com."},
		{"EXAMPLE.Com", "example.com."},
		{"a.B.c.", "a.b.c."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEqualNames(t *testing.T) {
	if !EqualNames("Example.COM", "example.com.") {
		t.Error("case/dot-insensitive comparison failed")
	}
	if EqualNames("example.com", "example.org") {
		t.Error("distinct names compared equal")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = EqualNames("Example.COM", "example.com.") }); allocs != 0 {
		t.Errorf("EqualNames: %v allocs/op, want 0", allocs)
	}
}

// TestCanonicalNameFoldsASCIIOnly: DNS folds the case of ASCII letters
// only (RFC 4343 §3). Binary labels stay distinct names, and a
// non-ASCII octet is never rewritten, whatever the case of the rest of
// the name.
func TestCanonicalNameFoldsASCIIOnly(t *testing.T) {
	cases := []struct{ in, want string }{
		{"\xff.example.com", "\xff.example.com."},
		{"\xfe.example.com", "\xfe.example.com."},
		{"\xff.EXAMPLE.com.", "\xff.example.com."},
		{"É.Example.com.", "É.example.com."},
		{"É.example.com.", "É.example.com."},
		{"é.EXAMPLE.com", "é.example.com."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if EqualNames("\xff.example.com", "\xfe.example.com") {
		t.Error("two binary labels compared equal")
	}
	if EqualNames("É.example.com", "é.example.com") {
		t.Error("a non-ASCII letter was case-folded")
	}
}

// FuzzEqualNames pins the in-place comparison to its definition: two
// names are equal exactly when their canonical forms are.
func FuzzEqualNames(f *testing.F) {
	for _, c := range [][2]string{
		{"Example.COM", "example.com."},
		{"example.com", "example.org"},
		{"", "."}, {".", ".."}, {"..", "..."}, {"", ""},
		{"a.", "a.."}, {"A", "a."},
		{"É.example.com", "é.example.com"},
		{"\xff.example.com", "\xfe.example.com"},
		{"\xed\xa0\x80", "\xef\xbf\xbd."},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := EqualNames(a, b), CanonicalName(a) == CanonicalName(b); got != want {
			t.Errorf("EqualNames(%q, %q) = %v, canonical forms %q, %q", a, b, got, CanonicalName(a), CanonicalName(b))
		}
		// CanonicalName folds ASCII letters and adds a missing trailing
		// dot; it changes no other octet.
		want := []byte(a)
		for i, c := range want {
			if c >= 'A' && c <= 'Z' {
				want[i] = c + ('a' - 'A')
			}
		}
		if !strings.HasSuffix(a, ".") {
			want = append(want, '.')
		}
		if got := CanonicalName(a); got != string(want) {
			t.Errorf("CanonicalName(%q) = %q, want %q", a, got, want)
		}
	})
}

func TestValidateName(t *testing.T) {
	if err := ValidateName("ok.example.com"); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
	if err := ValidateName("."); err != nil {
		t.Errorf("root rejected: %v", err)
	}
	if err := ValidateName(strings.Repeat("a", 64) + ".com"); err != ErrLabelTooLong {
		t.Errorf("long label: got %v, want ErrLabelTooLong", err)
	}
	if err := ValidateName("a..b.com"); err != ErrEmptyLabel {
		t.Errorf("empty label: got %v, want ErrEmptyLabel", err)
	}
	long := strings.Repeat(strings.Repeat("a", 63)+".", 5)
	if err := ValidateName(long); err != ErrNameTooLong {
		t.Errorf("long name: got %v, want ErrNameTooLong", err)
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []string{
		".",
		"com.",
		"example.com.",
		"a.very.deep.sub.domain.example.com.",
		"xn--idn.example.",
		"l1.t01.m0042.spf-test.dns-lab.org.",
	}
	for _, name := range names {
		b := newBuilder()
		if err := b.packName(name); err != nil {
			t.Fatalf("packName(%q): %v", name, err)
		}
		got, next, err := unpackName(b.buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
		if next != len(b.buf) {
			t.Errorf("unpackName(%q) consumed %d of %d bytes", name, next, len(b.buf))
		}
	}
}

func TestNameCompression(t *testing.T) {
	b := newBuilder()
	if err := b.packName("mail.example.com."); err != nil {
		t.Fatal(err)
	}
	firstLen := len(b.buf)
	if err := b.packName("www.example.com."); err != nil {
		t.Fatal(err)
	}
	// The second name should reuse the "example.com." suffix through a
	// 2-octet pointer: 1+3 ("www") + 2 (pointer) = 6 octets.
	if got := len(b.buf) - firstLen; got != 6 {
		t.Errorf("compressed second name used %d octets, want 6", got)
	}
	name, _, err := unpackName(b.buf, firstLen)
	if err != nil {
		t.Fatal(err)
	}
	if name != "www.example.com." {
		t.Errorf("decompressed to %q", name)
	}
	// Exact repeat should collapse to a single pointer.
	secondLen := len(b.buf)
	if err := b.packName("mail.example.com."); err != nil {
		t.Fatal(err)
	}
	if got := len(b.buf) - secondLen; got != 2 {
		t.Errorf("fully-compressed name used %d octets, want 2", got)
	}
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// A pointer that targets itself must be rejected, not looped.
	msg := []byte{0xC0, 0x00}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Error("self-referential pointer accepted")
	}
	// Forward pointers are illegal.
	msg = []byte{0xC0, 0x05, 0, 0, 0, 1, 'a', 0}
	if _, _, err := unpackName(msg, 0); err == nil {
		t.Error("forward pointer accepted")
	}
}

func TestUnpackNameTruncated(t *testing.T) {
	b := newBuilder()
	if err := b.packName("example.com."); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(b.buf); i++ {
		if _, _, err := unpackName(b.buf[:i], 0); err == nil {
			t.Errorf("truncation at %d octets accepted", i)
		}
	}
}

func TestNameRoundTripProperty(t *testing.T) {
	// Property: any syntactically valid lowercase name survives a
	// pack/unpack round trip.
	f := func(rawLabels [][]byte) bool {
		var labels []string
		size := 1
		for _, raw := range rawLabels {
			if len(raw) == 0 {
				continue
			}
			if len(raw) > maxLabelLen {
				raw = raw[:maxLabelLen]
			}
			label := make([]byte, len(raw))
			for i, c := range raw {
				label[i] = "abcdefghijklmnopqrstuvwxyz0123456789-"[int(c)%37]
			}
			if size+len(label)+1 > maxNameLen {
				break
			}
			size += len(label) + 1
			labels = append(labels, string(label))
		}
		name := CanonicalName(strings.Join(labels, "."))
		b := newBuilder()
		if err := b.packName(name); err != nil {
			return false
		}
		got, _, err := unpackName(b.buf, 0)
		return err == nil && got == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLowerASCII(t *testing.T) {
	if got := string(lowerASCII([]byte("MiXeD-09"))); got != "mixed-09" {
		t.Errorf("lowerASCII = %q", got)
	}
	in := []byte("already")
	if got := lowerASCII(in); &got[0] != &in[0] {
		t.Error("lowerASCII copied an already-lowercase label")
	}
}
