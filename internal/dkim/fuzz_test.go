package dkim

import (
	"crypto"
	"crypto/ed25519"
	"crypto/rsa"
	"crypto/sha512"
	"crypto/x509"
	"encoding/base64"
	"math/big"
	"strings"
	"testing"
)

// seedRSAKey returns a deterministic RSA public key of the given size:
// a modulus expanded from a hash of the size, odd and with its top bit
// set. Nothing checks that it factors; parsing does not.
func seedRSAKey(bits, e int) *rsa.PublicKey {
	var buf []byte
	for block := sha512.Sum512([]byte{byte(bits >> 8), byte(bits)}); len(buf) < bits/8; block = sha512.Sum512(block[:]) {
		buf = append(buf, block[:]...)
	}
	buf = buf[:bits/8]
	buf[0] |= 0x80
	buf[len(buf)-1] |= 1
	return &rsa.PublicKey{N: new(big.Int).SetBytes(buf), E: e}
}

// FuzzKeyRecordRoundTrip: a key record ParseKeyRecord accepts
// publishes a key that FormatKeyRecord renders and ParseKeyRecord
// reads back Equal to it, with the same key type. A PKCS#1 RSA key
// comes back as PKIX (RFC 6376 §3.6.1's encoding).
func FuzzKeyRecordRoundTrip(f *testing.F) {
	ed := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)).Public()
	for _, pub := range []crypto.PublicKey{ed, seedRSAKey(1024, 65537), seedRSAKey(2048, 3)} {
		rec, err := FormatKeyRecord(pub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(strings.Replace(rec, "; p=", "; t=y:s; s=email; h=sha256; p=", 1))
		f.Add(strings.TrimPrefix(rec, "v=DKIM1; "))
		if rsaPub, ok := pub.(*rsa.PublicKey); ok {
			pkcs1 := base64.StdEncoding.EncodeToString(x509.MarshalPKCS1PublicKey(rsaPub))
			f.Add("v=DKIM1; p=" + pkcs1)
			f.Add("k=rsa; p=" + pkcs1[:20] + "\r\n " + pkcs1[20:40] + " \t" + pkcs1[40:] + ";")
		}
	}
	f.Add("v=DKIM1; p=")
	f.Add("v=DKIM1; k=ed25519; p=QUJD")
	f.Fuzz(func(t *testing.T, txt string) {
		k, err := ParseKeyRecord(txt)
		if err != nil {
			return
		}
		out, err := FormatKeyRecord(k.PublicKey)
		if err != nil {
			t.Fatalf("FormatKeyRecord of the key in %q: %v", txt, err)
		}
		back, err := ParseKeyRecord(out)
		if err != nil {
			t.Fatalf("ParseKeyRecord(%q), the rendering of the key in %q: %v", out, txt, err)
		}
		if back.KeyType != k.KeyType || !back.PublicKey.(interface{ Equal(crypto.PublicKey) bool }).Equal(k.PublicKey) {
			t.Errorf("the key in %q (%s) renders as %q, which parses to a different %s key", txt, k.KeyType, out, back.KeyType)
		}
		if k.KeyType == "rsa" {
			der, _ := base64.StdEncoding.DecodeString(out[strings.LastIndex(out, "p=")+2:])
			if _, err := x509.ParsePKIXPublicKey(der); err != nil {
				t.Errorf("the RSA key in %q renders as %q, not PKIX: %v", txt, out, err)
			}
		}
	})
}
