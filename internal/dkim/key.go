package dkim

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Key algorithm names (a= tag values).
const (
	AlgRSASHA256     = "rsa-sha256"
	AlgEd25519SHA256 = "ed25519-sha256"
)

// Errors from key handling.
var (
	ErrNoKey        = errors.New("dkim: no key record found")
	ErrKeyRevoked   = errors.New("dkim: key revoked (empty p= tag)")
	ErrBadKeyRecord = errors.New("dkim: malformed key record")
)

// KeyRecord is a parsed _domainkey TXT record (RFC 6376 §3.6.1).
type KeyRecord struct {
	// Version is the v= tag; "DKIM1" or empty.
	Version string
	// KeyType is the k= tag; "rsa" (default) or "ed25519".
	KeyType string
	// PublicKey is the decoded p= tag.
	PublicKey crypto.PublicKey
	// Flags holds t= flags ("y" testing, "s" strict).
	Flags []string
	// Services holds s= service types; empty means all.
	Services []string
}

// forEmail reports whether the s= tag admits email: absent, "*" or
// "email" (RFC 6376 §3.6.1).
func (k *KeyRecord) forEmail() bool {
	return len(k.Services) == 0 || slices.Contains(k.Services, "email") || slices.Contains(k.Services, "*")
}

// ParseKeyRecord parses the TXT payload of a _domainkey record.
func ParseKeyRecord(txt string) (*KeyRecord, error) {
	tags, err := parseTagList(txt)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKeyRecord, err)
	}
	k := &KeyRecord{Version: tags["v"], KeyType: tags["k"]}
	if k.Version != "" && k.Version != "DKIM1" {
		return nil, fmt.Errorf("%w: version %q", ErrBadKeyRecord, k.Version)
	}
	if k.KeyType == "" {
		k.KeyType = "rsa"
	}
	if f := tags["t"]; f != "" {
		k.Flags = strings.Split(f, ":")
	}
	if s := tags["s"]; s != "" {
		k.Services = strings.Split(s, ":")
	}
	p, ok := tags["p"]
	if !ok {
		return nil, fmt.Errorf("%w: missing p= tag", ErrBadKeyRecord)
	}
	if p == "" {
		return nil, ErrKeyRevoked
	}
	der, err := base64.StdEncoding.DecodeString(strings.Map(dropWSP, p))
	if err != nil {
		return nil, fmt.Errorf("%w: p= tag: %v", ErrBadKeyRecord, err)
	}
	switch k.KeyType {
	case "rsa":
		pub, err := x509.ParsePKIXPublicKey(der)
		if err != nil {
			// Some deployments publish PKCS#1 keys.
			if pkcs1, err1 := x509.ParsePKCS1PublicKey(der); err1 == nil {
				k.PublicKey = pkcs1
				return k, nil
			}
			return nil, fmt.Errorf("%w: rsa key: %v", ErrBadKeyRecord, err)
		}
		rsaKey, ok := pub.(*rsa.PublicKey)
		if !ok {
			return nil, fmt.Errorf("%w: p= tag is not an RSA key", ErrBadKeyRecord)
		}
		k.PublicKey = rsaKey
	case "ed25519":
		if len(der) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("%w: ed25519 key length %d", ErrBadKeyRecord, len(der))
		}
		k.PublicKey = ed25519.PublicKey(der)
	default:
		return nil, fmt.Errorf("%w: key type %q", ErrBadKeyRecord, k.KeyType)
	}
	return k, nil
}

// FormatKeyRecord renders the TXT payload publishing pub.
func FormatKeyRecord(pub crypto.PublicKey) (string, error) {
	switch key := pub.(type) {
	case *rsa.PublicKey:
		der, err := x509.MarshalPKIXPublicKey(key)
		if err != nil {
			return "", err
		}
		return "v=DKIM1; k=rsa; p=" + base64.StdEncoding.EncodeToString(der), nil
	case ed25519.PublicKey:
		return "v=DKIM1; k=ed25519; p=" + base64.StdEncoding.EncodeToString(key), nil
	default:
		return "", fmt.Errorf("dkim: unsupported public key type %T", pub)
	}
}

// KeyName returns the DNS name where the key for (selector, domain)
// lives: <selector>._domainkey.<domain>.
func KeyName(selector, domain string) string {
	return selector + "._domainkey." + strings.TrimSuffix(domain, ".")
}

// parseTagList parses the tag=value; tag=value syntax shared by
// signature headers and key records (RFC 6376 §3.2).
func parseTagList(s string) (map[string]string, error) {
	tags := make(map[string]string)
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(unfold(part))
		if part == "" {
			continue
		}
		name, value, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tag %q lacks '='", part)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("empty tag name in %q", part)
		}
		if _, dup := tags[name]; dup {
			return nil, fmt.Errorf("duplicate tag %q", name)
		}
		tags[name] = strings.TrimSpace(value)
	}
	return tags, nil
}

func dropWSP(r rune) rune {
	if r == ' ' || r == '\t' || r == '\r' || r == '\n' {
		return -1
	}
	return r
}
