package dkim

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"strings"
)

// Signer produces DKIM-Signature headers for outgoing messages.
type Signer struct {
	// Domain is the d= signing domain.
	Domain string
	// Selector is the s= key selector.
	Selector string
	// Key is the private key: *rsa.PrivateKey or ed25519.PrivateKey.
	Key crypto.Signer
	// Headers lists the header fields to sign. Empty means the default
	// set: From, To, Subject, Date, Message-ID (those present).
	Headers []string
	// HeaderCanon and BodyCanon select canonicalization. Empty means
	// relaxed/relaxed, the dominant deployment choice.
	HeaderCanon Canonicalization
	BodyCanon   Canonicalization
}

var defaultSignedHeaders = []string{"From", "To", "Subject", "Date", "Message-ID"}

func (s *Signer) canon() (Canonicalization, Canonicalization) {
	h, b := s.HeaderCanon, s.BodyCanon
	if h == "" {
		h = Relaxed
	}
	if b == "" {
		b = Relaxed
	}
	return h, b
}

func (s *Signer) algorithm() (string, error) {
	switch s.Key.(type) {
	case *rsa.PrivateKey:
		return AlgRSASHA256, nil
	case ed25519.PrivateKey:
		return AlgEd25519SHA256, nil
	default:
		return "", fmt.Errorf("dkim: unsupported private key type %T", s.Key)
	}
}

// Sign parses raw, computes the signature, and returns the message
// with the DKIM-Signature header prepended.
func (s *Signer) Sign(raw []byte) ([]byte, error) {
	msg, err := ParseMessage(raw)
	if err != nil {
		return nil, err
	}
	header, err := s.SignatureHeader(msg)
	if err != nil {
		return nil, err
	}
	msg.Prepend("DKIM-Signature", header)
	return msg.Render(), nil
}

// SignatureHeader computes the DKIM-Signature header value for msg.
func (s *Signer) SignatureHeader(msg *Message) (string, error) {
	if s.Domain == "" || s.Selector == "" {
		return "", fmt.Errorf("dkim: signer requires Domain and Selector")
	}
	alg, err := s.algorithm()
	if err != nil {
		return "", err
	}
	hc, bc := s.canon()

	signedNames := s.Headers
	if len(signedNames) == 0 {
		for _, name := range defaultSignedHeaders {
			if msg.Get(name) != "" {
				signedNames = append(signedNames, name)
			}
		}
	}
	if len(signedNames) == 0 {
		return "", fmt.Errorf("dkim: no headers to sign")
	}

	bodyHash := sha256.Sum256(CanonicalizeBody(msg.Body, bc))
	bh := base64.StdEncoding.EncodeToString(bodyHash[:])

	var tags strings.Builder
	fmt.Fprintf(&tags, "v=1; a=%s; c=%s/%s; d=%s; s=%s;", alg, hc, bc, s.Domain, s.Selector)
	fmt.Fprintf(&tags, " h=%s; bh=%s; b=", strings.Join(signedNames, ":"), bh)
	unsigned := tags.String()

	digest := headerDigest(msg, signedNames, unsigned, hc)
	sig, err := s.sign(digest)
	if err != nil {
		return "", err
	}
	return unsigned + base64.StdEncoding.EncodeToString(sig), nil
}

func (s *Signer) sign(digest []byte) ([]byte, error) {
	switch key := s.Key.(type) {
	case *rsa.PrivateKey:
		return rsa.SignPKCS1v15(rand.Reader, key, crypto.SHA256, digest)
	case ed25519.PrivateKey:
		// RFC 8463: Ed25519 signs the SHA-256 digest.
		return ed25519.Sign(key, digest), nil
	default:
		return nil, fmt.Errorf("dkim: unsupported private key type %T", s.Key)
	}
}

// headerDigest computes the SHA-256 over the canonicalized signed
// headers followed by the (b=-emptied) signature header without its
// trailing CRLF (RFC 6376 §3.7).
func headerDigest(msg *Message, signedNames []string, sigHeaderValue string, hc Canonicalization) []byte {
	h := sha256.New()
	for _, hdr := range selectHeaders(msg.Headers, signedNames) {
		h.Write([]byte(CanonicalizeHeader(hdr, hc)))
	}
	sigHeader := Header{
		Name:  "DKIM-Signature",
		Value: " " + sigHeaderValue,
		Raw:   "DKIM-Signature: " + sigHeaderValue + "\r\n",
	}
	canon := CanonicalizeHeader(sigHeader, hc)
	canon = strings.TrimSuffix(canon, "\r\n")
	h.Write([]byte(canon))
	return h.Sum(nil)
}
