package dkim

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/base64"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testKeys caches generated keys across tests (RSA keygen is slow).
var (
	keyOnce sync.Once
	rsaKey  *rsa.PrivateKey
	edPub   ed25519.PublicKey
	edPriv  ed25519.PrivateKey
)

func keys(t *testing.T) (*rsa.PrivateKey, ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		rsaKey, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			t.Fatalf("rsa keygen: %v", err)
		}
		edPub, edPriv, err = ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatalf("ed25519 keygen: %v", err)
		}
	})
	return rsaKey, edPub, edPriv
}

// mapResolver serves TXT records from a map.
type mapResolver struct {
	txt     map[string][]string
	queries []string
}

func (r *mapResolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	r.queries = append(r.queries, strings.ToLower(strings.TrimSuffix(name, ".")))
	return r.txt[strings.ToLower(strings.TrimSuffix(name, "."))], nil
}

const sampleMail = "From: Alice <alice@sender.example>\r\n" +
	"To: bob@recipient.example\r\n" +
	"Subject: measurement study notification\r\n" +
	"Date: Mon, 05 Oct 2020 10:00:00 +0000\r\n" +
	"Message-ID: <m1@sender.example>\r\n" +
	"\r\n" +
	"Dear operator,\r\n" +
	"\r\n" +
	"your network has a vulnerability.\r\n"

func signAndPublish(t *testing.T, signer *Signer, pub any) (signed []byte, res *mapResolver) {
	t.Helper()
	signed, err := signer.Sign([]byte(sampleMail))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	record, err := FormatKeyRecord(pub)
	if err != nil {
		t.Fatalf("FormatKeyRecord: %v", err)
	}
	res = &mapResolver{txt: map[string][]string{
		KeyName(signer.Selector, signer.Domain): {record},
	}}
	return signed, res
}

func TestSignVerifyRSA(t *testing.T) {
	rsaKey, _, _ := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: rsaKey}
	signed, res := signAndPublish(t, signer, &rsaKey.PublicKey)

	v := &Verifier{Resolver: res}
	out := v.Verify(context.Background(), signed)
	if out.Result != ResultPass {
		t.Fatalf("verify: %s (%v)", out.Result, out.Err)
	}
	if out.Domain != "sender.example" {
		t.Errorf("domain %q", out.Domain)
	}
	// Verification must have queried the key name — the observable the
	// study counts as DKIM validation.
	if len(res.queries) != 1 || res.queries[0] != "s1._domainkey.sender.example" {
		t.Errorf("key queries %v", res.queries)
	}
}

func TestSignVerifyEd25519(t *testing.T) {
	_, edPub, edPriv := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "ed", Key: edPriv}
	signed, res := signAndPublish(t, signer, edPub)
	out := (&Verifier{Resolver: res}).Verify(context.Background(), signed)
	if out.Result != ResultPass {
		t.Fatalf("ed25519 verify: %s (%v)", out.Result, out.Err)
	}
}

func TestSignVerifySimpleCanon(t *testing.T) {
	rsaKey, _, _ := keys(t)
	signer := &Signer{
		Domain: "sender.example", Selector: "s1", Key: rsaKey,
		HeaderCanon: Simple, BodyCanon: Simple,
	}
	signed, res := signAndPublish(t, signer, &rsaKey.PublicKey)
	out := (&Verifier{Resolver: res}).Verify(context.Background(), signed)
	if out.Result != ResultPass {
		t.Fatalf("simple/simple verify: %s (%v)", out.Result, out.Err)
	}
}

func TestVerifyDetectsBodyTampering(t *testing.T) {
	rsaKey, _, _ := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: rsaKey}
	signed, res := signAndPublish(t, signer, &rsaKey.PublicKey)
	tampered := []byte(strings.Replace(string(signed), "vulnerability", "VULNERABILITY!", 1))
	out := (&Verifier{Resolver: res}).Verify(context.Background(), tampered)
	if out.Result != ResultFail {
		t.Errorf("tampered body: %s (%v)", out.Result, out.Err)
	}
}

func TestVerifyDetectsHeaderTampering(t *testing.T) {
	rsaKey, _, _ := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: rsaKey}
	signed, res := signAndPublish(t, signer, &rsaKey.PublicKey)
	tampered := []byte(strings.Replace(string(signed),
		"Subject: measurement study notification",
		"Subject: click here for a prize", 1))
	out := (&Verifier{Resolver: res}).Verify(context.Background(), tampered)
	if out.Result != ResultFail {
		t.Errorf("tampered header: %s (%v)", out.Result, out.Err)
	}
}

func TestRelaxedCanonSurvivesWhitespaceChanges(t *testing.T) {
	// Relaxed canonicalization tolerates WSP collapse in transit.
	rsaKey, _, _ := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: rsaKey}
	signed, res := signAndPublish(t, signer, &rsaKey.PublicKey)
	relayed := []byte(strings.Replace(string(signed),
		"Subject: measurement study notification",
		"Subject:  measurement   study \tnotification", 1))
	out := (&Verifier{Resolver: res}).Verify(context.Background(), relayed)
	if out.Result != ResultPass {
		t.Errorf("relaxed WSP tolerance: %s (%v)", out.Result, out.Err)
	}
}

func TestVerifyNoSignature(t *testing.T) {
	res := &mapResolver{txt: map[string][]string{}}
	out := (&Verifier{Resolver: res}).Verify(context.Background(), []byte(sampleMail))
	if out.Result != ResultNone {
		t.Errorf("unsigned message: %s", out.Result)
	}
	if len(res.queries) != 0 {
		t.Error("unsigned message triggered a key query")
	}
}

func TestVerifyMissingKey(t *testing.T) {
	rsaKey, _, _ := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: rsaKey}
	signed, err := signer.Sign([]byte(sampleMail))
	if err != nil {
		t.Fatal(err)
	}
	res := &mapResolver{txt: map[string][]string{}}
	out := (&Verifier{Resolver: res}).Verify(context.Background(), signed)
	if out.Result != ResultPermError {
		t.Errorf("missing key: %s", out.Result)
	}
}

func TestVerifyRevokedKey(t *testing.T) {
	rsaKey, _, _ := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: rsaKey}
	signed, err := signer.Sign([]byte(sampleMail))
	if err != nil {
		t.Fatal(err)
	}
	res := &mapResolver{txt: map[string][]string{
		"s1._domainkey.sender.example": {"v=DKIM1; k=rsa; p="},
	}}
	out := (&Verifier{Resolver: res}).Verify(context.Background(), signed)
	if out.Result != ResultPermError {
		t.Errorf("revoked key: %s (%v)", out.Result, out.Err)
	}
}

func TestKeyRecordRoundTrip(t *testing.T) {
	rsaKey, edPub, _ := keys(t)
	for _, pub := range []any{&rsaKey.PublicKey, edPub} {
		record, err := FormatKeyRecord(pub)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseKeyRecord(record)
		if err != nil {
			t.Fatalf("ParseKeyRecord(%q): %v", record[:40], err)
		}
		if parsed.Version != "DKIM1" {
			t.Errorf("version %q", parsed.Version)
		}
	}
}

func TestParseKeyRecordErrors(t *testing.T) {
	cases := []string{
		"v=DKIM2; p=AAAA",            // bad version
		"v=DKIM1; k=dsa; p=AAA",      // unsupported key type
		"v=DKIM1; k=rsa",             // missing p=
		"v=DKIM1; p=!!!notb64",       // bad base64
		"v=DKIM1; k=ed25519; p=QUJD", // wrong ed25519 length
	}
	for _, txt := range cases {
		if _, err := ParseKeyRecord(txt); err == nil {
			t.Errorf("ParseKeyRecord(%q) accepted", txt)
		}
	}
	if _, err := ParseKeyRecord("v=DKIM1; p="); err != ErrKeyRevoked {
		t.Errorf("revoked: %v", err)
	}
}

func TestKeyRecordFlags(t *testing.T) {
	rsaKey, _, _ := keys(t)
	base, _ := FormatKeyRecord(&rsaKey.PublicKey)
	record := strings.Replace(base, "k=rsa;", "k=rsa; t=y:s; s=email;", 1)
	parsed, err := ParseKeyRecord(record)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(parsed.Flags, "y") {
		t.Error("t=y flag not detected")
	}
	if len(parsed.Services) != 1 || parsed.Services[0] != "email" {
		t.Errorf("services %v", parsed.Services)
	}
}

func TestParseSignatureErrors(t *testing.T) {
	cases := []string{
		"v=2; a=rsa-sha256; d=x.com; s=s; h=from; bh=QQ==; b=QQ==",       // bad version
		"v=1; a=rsa-md5; d=x.com; s=s; h=from; bh=QQ==; b=QQ==",          // bad algorithm
		"v=1; a=rsa-sha256; s=s; h=from; bh=QQ==; b=QQ==",                // missing d=
		"v=1; a=rsa-sha256; d=x.com; s=s; h=subject; bh=QQ==; b=QQ==",    // From unsigned
		"v=1; a=rsa-sha256; d=x.com; s=s; h=from; bh=QQ==; b=",           // empty b=
		"v=1; a=rsa-sha256; c=odd/odd; d=x.com; s=s; h=from; bh=Q; b=QQ", // bad canon
	}
	for _, v := range cases {
		if _, err := ParseSignature(v); err == nil {
			t.Errorf("ParseSignature(%q) accepted", v)
		}
	}
}

func TestCanonicalizeHeaderRelaxed(t *testing.T) {
	h := Header{Name: "SUBJECT ", Value: "  multiple\t words  \r\n folded", Raw: "SUBJECT :  multiple\t words  \r\n folded\r\n"}
	got := CanonicalizeHeader(h, Relaxed)
	if got != "subject:multiple words folded\r\n" {
		t.Errorf("relaxed header = %q", got)
	}
	if CanonicalizeHeader(h, Simple) != h.Raw {
		t.Error("simple header must be the raw bytes")
	}
}

func TestCanonicalizeBody(t *testing.T) {
	cases := []struct {
		in, wantSimple, wantRelaxed string
	}{
		{"", "\r\n", ""},
		{"\r\n\r\n", "\r\n", ""},
		{"line\r\n", "line\r\n", "line\r\n"},
		{"line", "line\r\n", "line\r\n"},
		{"a  b \t c\r\n", "a  b \t c\r\n", "a b c\r\n"},
		{"text\r\n\r\n\r\n", "text\r\n", "text\r\n"},
		{"trailing ws  \r\nx\r\n", "trailing ws  \r\nx\r\n", "trailing ws\r\nx\r\n"},
	}
	for _, c := range cases {
		if got := string(CanonicalizeBody([]byte(c.in), Simple)); got != c.wantSimple {
			t.Errorf("simple(%q) = %q, want %q", c.in, got, c.wantSimple)
		}
		if got := string(CanonicalizeBody([]byte(c.in), Relaxed)); got != c.wantRelaxed {
			t.Errorf("relaxed(%q) = %q, want %q", c.in, got, c.wantRelaxed)
		}
	}
}

func TestSelectHeadersBottomUp(t *testing.T) {
	headers := []Header{
		{Name: "Received", Value: " first"},
		{Name: "Received", Value: " second"},
		{Name: "From", Value: " a@b.c"},
	}
	got := selectHeaders(headers, []string{"received", "received", "received", "from"})
	if len(got) != 3 {
		t.Fatalf("selected %d headers", len(got))
	}
	if got[0].Value != " second" || got[1].Value != " first" {
		t.Errorf("order: %v", got)
	}
}

func TestParseMessage(t *testing.T) {
	msg, err := ParseMessage([]byte(sampleMail))
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Headers) != 5 {
		t.Errorf("%d headers", len(msg.Headers))
	}
	if msg.Get("subject") != "measurement study notification" {
		t.Errorf("Get(subject) = %q", msg.Get("subject"))
	}
	if msg.Get("nonexistent") != "" {
		t.Error("missing header should be empty")
	}
	if !strings.HasPrefix(string(msg.Body), "Dear operator") {
		t.Errorf("body %q", msg.Body)
	}
	// Round trip.
	if string(msg.Render()) != sampleMail {
		t.Errorf("render mismatch:\n%q\n%q", msg.Render(), sampleMail)
	}
}

func TestParseMessageFolded(t *testing.T) {
	raw := "Subject: a folded\r\n\theader value\r\nFrom: x@y.z\r\n\r\nbody\r\n"
	msg, err := ParseMessage([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Headers) != 2 {
		t.Fatalf("%d headers", len(msg.Headers))
	}
	if got := msg.Get("subject"); got != "a folded\theader value" {
		t.Errorf("folded value %q", got)
	}
}

func TestParseMessageErrors(t *testing.T) {
	if _, err := ParseMessage([]byte(" continuation first\r\n\r\n")); err == nil {
		t.Error("leading continuation accepted")
	}
	if _, err := ParseMessage([]byte("no colon here\r\n\r\n")); err == nil {
		t.Error("colonless header accepted")
	}
}

func TestEmptyBTag(t *testing.T) {
	in := "v=1; a=rsa-sha256; bh=abc; b=SIGDATA"
	if got := emptyBTag(in); got != "v=1; a=rsa-sha256; bh=abc; b=" {
		t.Errorf("emptyBTag = %q", got)
	}
	in = "v=1; b=SIG; d=x.com"
	if got := emptyBTag(in); got != "v=1; b=; d=x.com" {
		t.Errorf("emptyBTag mid = %q", got)
	}
	// bh= must not be mistaken for b=.
	in = "v=1; bh=HASH"
	if got := emptyBTag(in); got != in {
		t.Errorf("emptyBTag touched bh=: %q", got)
	}
}

func TestKeyName(t *testing.T) {
	if got := KeyName("s1", "example.com."); got != "s1._domainkey.example.com" {
		t.Errorf("KeyName = %q", got)
	}
}

func TestSignRequiresConfig(t *testing.T) {
	rsaKey, _, _ := keys(t)
	if _, err := (&Signer{Key: rsaKey}).Sign([]byte(sampleMail)); err == nil {
		t.Error("signer without domain/selector succeeded")
	}
}

func TestSignedMessageStructure(t *testing.T) {
	rsaKey, _, _ := keys(t)
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: rsaKey}
	signed, err := signer.Sign([]byte(sampleMail))
	if err != nil {
		t.Fatal(err)
	}
	text := string(signed)
	if !strings.HasPrefix(text, "DKIM-Signature: v=1; a=rsa-sha256; c=relaxed/relaxed; d=sender.example; s=s1;") {
		t.Errorf("signature header placement:\n%s", text[:120])
	}
	if !strings.Contains(text, "h=From:To:Subject:Date:Message-ID;") {
		t.Error("default signed header set missing")
	}
}

func TestVerifyMessageUsesFirstSignature(t *testing.T) {
	// A message signed by the origin and re-signed by a forwarder: the
	// result speaks for the outermost (forwarder) signature.
	rsaKey, _, edPriv := keys(t)
	origin := &Signer{Domain: "origin.example", Selector: "o1", Key: rsaKey}
	signed, err := origin.Sign([]byte(sampleMail))
	if err != nil {
		t.Fatal(err)
	}
	forwarder := &Signer{Domain: "list.example", Selector: "f1", Key: edPriv}
	resigned, err := forwarder.Sign(signed)
	if err != nil {
		t.Fatal(err)
	}

	originKey, _ := FormatKeyRecord(&rsaKey.PublicKey)
	fwdKey, _ := FormatKeyRecord(edPriv.Public().(ed25519.PublicKey))
	res := &mapResolver{txt: map[string][]string{
		"o1._domainkey.origin.example": {originKey},
		"f1._domainkey.list.example":   {fwdKey},
	}}
	v := &Verifier{Resolver: res}
	if got := v.Verify(context.Background(), resigned); got.Domain != "list.example" || got.Result != ResultPass {
		t.Errorf("forwarder: %+v", got)
	}
	tampered := []byte(strings.Replace(string(resigned), "vulnerability", "prize", 1))
	if got := v.Verify(context.Background(), tampered); got.Domain != "list.example" || got.Result != ResultFail {
		t.Errorf("after tamper: %+v", got)
	}
}

// signWithIdentity signs sampleMail as d=sender.example, s=s1, carrying
// the i= tag when identity is set.
func signWithIdentity(t *testing.T, key *rsa.PrivateKey, identity string) []byte {
	t.Helper()
	msg, err := ParseMessage([]byte(sampleMail))
	if err != nil {
		t.Fatal(err)
	}
	headers := []string{"From", "To", "Subject", "Date", "Message-ID"}
	bh := sha256.Sum256(CanonicalizeBody(msg.Body, Relaxed))
	unsigned := "v=1; a=rsa-sha256; c=relaxed/relaxed; d=sender.example; s=s1;"
	if identity != "" {
		unsigned += " i=" + identity + ";"
	}
	unsigned += " h=" + strings.Join(headers, ":") + "; bh=" + base64.StdEncoding.EncodeToString(bh[:]) + "; b="
	signer := &Signer{Domain: "sender.example", Selector: "s1", Key: key}
	sig, err := signer.sign(headerDigest(msg, headers, unsigned, Relaxed))
	if err != nil {
		t.Fatal(err)
	}
	msg.Prepend("DKIM-Signature", unsigned+base64.StdEncoding.EncodeToString(sig))
	return msg.Render()
}

// TestIdentityAndKeyTags checks the RFC 6376 rules on the i= signature
// tag and the t= and s= key tags. Each rule case is a correctly signed
// message that a verifier ignoring those tags would pass; the controls
// pass under the rules too.
func TestIdentityAndKeyTags(t *testing.T) {
	rsaKey, _, _ := keys(t)
	base, err := FormatKeyRecord(&rsaKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name     string
		identity string // i= value, "" for none
		keyTags  string // inserted into the key record after k=rsa;
		want     Result
	}
	rules := []tc{
		{"§6.1.1 i= domain outside d=", "user@other.example", "", ResultPermError},
		{"§6.1.1 i= domain shares only a suffix with d=", "@badsender.example", "", ResultPermError},
		{"§3.6.1 t=s and an i= subdomain of d=", "@mail.sender.example", " t=s;", ResultPermError},
		{"§3.6.1 s= lists neither email nor *", "", " s=tlsrpt;", ResultPermError},
	}
	controls := []tc{
		{"§6.1.1 i= domain a subdomain of d=", "@mail.sender.example", "", ResultPass},
		{"§3.6.1 t=s and an i= domain equal to d=", "user@Sender.Example", " t=s;", ResultPass},
		{"§3.6.1 s=email", "", " s=email;", ResultPass},
		{"§3.6.1 s=*", "", " s=*;", ResultPass},
	}
	for _, c := range append(rules, controls...) {
		t.Run(c.name, func(t *testing.T) {
			res := &mapResolver{txt: map[string][]string{
				"s1._domainkey.sender.example": {strings.Replace(base, "k=rsa;", "k=rsa;"+c.keyTags, 1)},
			}}
			got := (&Verifier{Resolver: res}).Verify(context.Background(), signWithIdentity(t, rsaKey, c.identity))
			if got.Result != c.want {
				t.Errorf("%s (%v), want %s", got.Result, got.Err, c.want)
			}
		})
	}
}
