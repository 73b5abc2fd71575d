package dkim

import (
	"context"
	"crypto"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Result is a DKIM verification result, following the RFC 8601
// Authentication-Results vocabulary.
type Result string

// Verification results.
const (
	ResultPass      Result = "pass"
	ResultFail      Result = "fail"
	ResultNone      Result = "none"
	ResultPermError Result = "permerror"
	ResultTempError Result = "temperror"
)

// TXTResolver fetches TXT records; a lookup yielding no records
// returns (nil, nil), and transient failures return errors (the same
// contract as spf.Resolver, which satisfies this interface).
type TXTResolver interface {
	LookupTXT(ctx context.Context, name string) ([]string, error)
}

// Signature is a parsed DKIM-Signature header.
type Signature struct {
	Algorithm   string
	HeaderCanon Canonicalization
	BodyCanon   Canonicalization
	Domain      string
	Selector    string
	Headers     []string
	BodyHash    []byte
	Value       []byte
	// Identity is the optional i= agent/user identifier.
	Identity string
	// rawValue is the original header value with b= content intact,
	// needed to recompute the header digest.
	rawValue string
}

// ErrNoSignature reports a message without a DKIM-Signature header.
var ErrNoSignature = errors.New("dkim: no signature header")

// ParseSignature parses a DKIM-Signature header value.
func ParseSignature(value string) (*Signature, error) {
	tags, err := parseTagList(value)
	if err != nil {
		return nil, fmt.Errorf("dkim: signature header: %w", err)
	}
	if tags["v"] != "1" {
		return nil, fmt.Errorf("dkim: unsupported signature version %q", tags["v"])
	}
	sig := &Signature{
		Algorithm: tags["a"],
		Domain:    tags["d"],
		Selector:  tags["s"],
		Identity:  tags["i"],
		rawValue:  value,
	}
	if sig.Algorithm != AlgRSASHA256 && sig.Algorithm != AlgEd25519SHA256 {
		return nil, fmt.Errorf("dkim: unsupported algorithm %q", sig.Algorithm)
	}
	if sig.Domain == "" || sig.Selector == "" {
		return nil, errors.New("dkim: signature missing d= or s= tag")
	}
	// RFC 6376 §6.1.1: the i= domain is d= or a subdomain of it.
	if id := sig.Identity; id != "" && (!strings.Contains(id, "@") || !withinDomain(sig.identityDomain(), sig.Domain)) {
		return nil, fmt.Errorf("dkim: i= %q is not within d= %q", id, sig.Domain)
	}
	var ok bool
	sig.HeaderCanon, sig.BodyCanon, ok = ParseCanonicalization(tags["c"])
	if !ok {
		return nil, fmt.Errorf("dkim: bad canonicalization %q", tags["c"])
	}
	h := tags["h"]
	if h == "" {
		return nil, errors.New("dkim: signature missing h= tag")
	}
	sig.Headers = strings.Split(h, ":")
	fromSigned := false
	for _, name := range sig.Headers {
		if strings.EqualFold(strings.TrimSpace(name), "from") {
			fromSigned = true
		}
	}
	if !fromSigned {
		return nil, errors.New("dkim: From header not signed")
	}
	if sig.BodyHash, err = base64.StdEncoding.DecodeString(strings.Map(dropWSP, tags["bh"])); err != nil {
		return nil, fmt.Errorf("dkim: bh= tag: %w", err)
	}
	if sig.Value, err = base64.StdEncoding.DecodeString(strings.Map(dropWSP, tags["b"])); err != nil {
		return nil, fmt.Errorf("dkim: b= tag: %w", err)
	}
	if len(sig.Value) == 0 {
		return nil, errors.New("dkim: empty b= tag")
	}
	return sig, nil
}

// identityDomain is the domain of the i= tag, which defaults to d=
// (RFC 6376 §3.5).
func (s *Signature) identityDomain() string {
	if s.Identity == "" {
		return s.Domain
	}
	return s.Identity[strings.LastIndexByte(s.Identity, '@')+1:]
}

// withinDomain reports whether name is domain or a subdomain of it.
func withinDomain(name, domain string) bool {
	name, domain = strings.ToLower(name), strings.ToLower(domain)
	return name == domain || strings.HasSuffix(name, "."+domain)
}

// Verification is the outcome of verifying one signature.
type Verification struct {
	Result Result
	// Domain is the d= domain the result speaks for.
	Domain string
	// Err carries detail for non-pass results.
	Err error
}

// Verifier checks DKIM signatures on incoming messages.
type Verifier struct {
	// Resolver fetches key records.
	Resolver TXTResolver
}

// Verify checks the first DKIM-Signature of a raw message.
func (v *Verifier) Verify(ctx context.Context, raw []byte) *Verification {
	msg, err := ParseMessage(raw)
	if err != nil {
		return &Verification{Result: ResultPermError, Err: err}
	}
	return v.VerifyMessage(ctx, msg)
}

// VerifyMessage checks the first DKIM-Signature of a parsed message.
func (v *Verifier) VerifyMessage(ctx context.Context, msg *Message) *Verification {
	for i := range msg.Headers {
		if strings.EqualFold(msg.Headers[i].Name, "DKIM-Signature") {
			return v.verifyOne(ctx, msg, &msg.Headers[i])
		}
	}
	return &Verification{Result: ResultNone, Err: ErrNoSignature}
}

func (v *Verifier) verifyOne(ctx context.Context, msg *Message, sigHeader *Header) *Verification {
	sig, err := ParseSignature(strings.TrimSpace(unfold(sigHeader.Value)))
	if err != nil {
		return &Verification{Result: ResultPermError, Err: err}
	}
	out := &Verification{Domain: sig.Domain}

	// Fetch the public key: the DNS query that makes DKIM validation
	// visible to the measurement apparatus.
	txts, err := v.Resolver.LookupTXT(ctx, KeyName(sig.Selector, sig.Domain))
	if err != nil {
		out.Result, out.Err = ResultTempError, err
		return out
	}
	var key *KeyRecord
	var keyErr error
	for _, txt := range txts {
		// RFC 6376 §3.6.1: a record whose s= excludes email is ignored.
		if key, keyErr = ParseKeyRecord(txt); keyErr == nil && !key.forEmail() {
			key, keyErr = nil, fmt.Errorf("%w for email: s=%s", ErrNoKey, strings.Join(key.Services, ":"))
		}
		if keyErr == nil {
			break
		}
	}
	if key == nil {
		if keyErr == nil {
			keyErr = ErrNoKey
		}
		out.Result, out.Err = ResultPermError, keyErr
		return out
	}
	// RFC 6376 §3.6.1: under t=s the i= domain must equal d=.
	if slices.Contains(key.Flags, "s") && !strings.EqualFold(sig.identityDomain(), sig.Domain) {
		out.Result, out.Err = ResultPermError, fmt.Errorf("dkim: key flag t=s: i= domain %q is not d=", sig.identityDomain())
		return out
	}

	// Body hash.
	bodyHash := sha256.Sum256(CanonicalizeBody(msg.Body, sig.BodyCanon))
	if !equalBytes(bodyHash[:], sig.BodyHash) {
		out.Result, out.Err = ResultFail, errors.New("dkim: body hash mismatch")
		return out
	}

	// Header hash: the signature header participates with b= emptied.
	emptied := emptyBTag(sig.rawValue)
	digest := headerDigest(msg, sig.Headers, emptied, sig.HeaderCanon)

	switch pub := key.PublicKey.(type) {
	case *rsa.PublicKey:
		if sig.Algorithm != AlgRSASHA256 {
			out.Result, out.Err = ResultPermError, fmt.Errorf("dkim: algorithm %s with RSA key", sig.Algorithm)
			return out
		}
		if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest, sig.Value); err != nil {
			out.Result, out.Err = ResultFail, err
			return out
		}
	case ed25519.PublicKey:
		if sig.Algorithm != AlgEd25519SHA256 {
			out.Result, out.Err = ResultPermError, fmt.Errorf("dkim: algorithm %s with Ed25519 key", sig.Algorithm)
			return out
		}
		if !ed25519.Verify(pub, digest, sig.Value) {
			out.Result, out.Err = ResultFail, errors.New("dkim: ed25519 signature mismatch")
			return out
		}
	default:
		out.Result, out.Err = ResultPermError, fmt.Errorf("dkim: unsupported key type %T", key.PublicKey)
		return out
	}
	out.Result = ResultPass
	return out
}

// emptyBTag removes the content of the b= tag while preserving
// everything else byte-for-byte (RFC 6376 §3.7).
func emptyBTag(value string) string {
	// Find the b= tag at a tag boundary (start or after ';').
	for i := 0; i < len(value); i++ {
		if value[i] != 'b' {
			continue
		}
		// Must be preceded by start/;/WSP and followed by optional WSP
		// then '='. Exclude "bh".
		j := i + 1
		for j < len(value) && (value[j] == ' ' || value[j] == '\t') {
			j++
		}
		if j >= len(value) || value[j] != '=' {
			continue
		}
		if i > 0 {
			prev := value[i-1]
			if prev != ';' && prev != ' ' && prev != '\t' && prev != '\n' && prev != '\r' {
				continue
			}
		}
		end := strings.IndexByte(value[j:], ';')
		if end < 0 {
			return value[:j+1]
		}
		return value[:j+1] + value[j+end:]
	}
	return value
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
