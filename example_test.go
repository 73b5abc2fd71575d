package sendervalid_test

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"log"
	"net"
	"net/mail"
	"strings"
	"time"

	sendervalid "sendervalid"
)

// Sign a message with DKIM and verify it end to end through the DNS,
// the way the NotifyEmail experiment signed every outgoing notification
// (paper §4.3.1): publish the key as a _domainkey TXT record in a local
// authoritative server, sign with relaxed/relaxed canonicalization,
// verify through a real stub resolver, then watch verification fail
// after in-transit tampering and survive whitespace refolding.
func ExampleDKIMSigner() {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		log.Fatal(err)
	}
	keyRecord, err := sendervalid.FormatDKIMKey(&key.PublicKey)
	if err != nil {
		log.Fatal(err)
	}

	// Publish the key at s2026._domainkey.sender.example.
	zone := sendervalid.NewStaticZone().DKIMKey("s2026", "sender.example", keyRecord)
	authdns := &sendervalid.AuthServer{
		Zones: []*sendervalid.AuthZone{{Suffix: "sender.example.", LabelDepth: 1, Default: zone}},
	}
	dnsAddr, err := authdns.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = authdns.Shutdown(ctx)
	}()

	message := "From: Research Team <notify@sender.example>\r\n" +
		"To: operator@recipient.example\r\n" +
		"Subject: vulnerability notification\r\n" +
		"Date: Mon, 06 Jul 2026 09:00:00 +0000\r\n" +
		"Message-ID: <n-001@sender.example>\r\n" +
		"\r\n" +
		"Dear operator,\r\n" +
		"\r\n" +
		"we detected an issue in your network. Details follow.\r\n"

	signer := &sendervalid.DKIMSigner{Domain: "sender.example", Selector: "s2026", Key: key}
	signed, err := signer.Sign([]byte(message))
	if err != nil {
		log.Fatal(err)
	}
	sigLine, _, _ := strings.Cut(string(signed), "\r\n")
	fmt.Printf("signature header: %.70s...\n", sigLine)

	res := sendervalid.NewResolver(sendervalid.ResolverConfig{Server: dnsAddr.String()})
	verifier := &sendervalid.DKIMVerifier{Resolver: res}
	ctx := context.Background()

	out := verifier.Verify(ctx, signed)
	fmt.Printf("verification of the signed message: %s (d=%s)\n", out.Result, out.Domain)

	tampered := []byte(strings.Replace(string(signed), "we detected an issue", "send us money", 1))
	out = verifier.Verify(ctx, tampered)
	fmt.Printf("verification after tampering:       %s (%v)\n", out.Result, out.Err)

	// Whitespace refolding survives relaxed canonicalization.
	refolded := []byte(strings.Replace(string(signed),
		"Subject: vulnerability notification", "Subject:   vulnerability    notification", 1))
	out = verifier.Verify(ctx, refolded)
	fmt.Printf("verification after WSP refolding:   %s\n", out.Result)

	// Output:
	// signature header: DKIM-Signature: v=1; a=rsa-sha256; c=relaxed/relaxed; d=sender.example...
	// verification of the signed message: pass (d=sender.example)
	// verification after tampering:       fail (dkim: body hash mismatch)
	// verification after WSP refolding:   pass
}

// Build a production-style validating mail receiver out of the facade —
// the scenario the paper's introduction motivates: a mail server that
// checks SPF at MAIL time, verifies DKIM signatures on delivery, and
// enforces the sender domain's DMARC policy. Two deliveries are played
// against it: a legitimate, signed one (accepted), and a spoofed one
// whose envelope passes SPF for the attacker's own domain — which is
// not the domain in the From: header, so DMARC p=reject refuses it.
func Example_validatingReceiver() {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	keyRecord, err := sendervalid.FormatDKIMKey(pub)
	if err != nil {
		log.Fatal(err)
	}
	// The DNS: the sender domain publishes SPF, a DKIM key and DMARC
	// reject; the attacker's domain authorizes the attacker's own host.
	// (Both clients connect over loopback, hence ip4:127.0.0.1.)
	zone := sendervalid.NewStaticZone().
		SPF("legit-sender.example", "v=spf1 ip4:127.0.0.1 -all").
		DKIMKey("mail", "legit-sender.example", keyRecord).
		DMARC("legit-sender.example", "v=DMARC1; p=reject").
		SPF("attacker.example", "v=spf1 ip4:127.0.0.1 -all")
	authdns := &sendervalid.AuthServer{
		Zones: []*sendervalid.AuthZone{{Suffix: "example.", LabelDepth: 1, Default: zone}},
	}
	dnsAddr, err := authdns.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = authdns.Shutdown(ctx)
	}()

	// The validating receiver.
	res := sendervalid.NewResolver(sendervalid.ResolverConfig{Server: dnsAddr.String()})
	checker := &sendervalid.SPFChecker{Resolver: res, Options: sendervalid.SPFOptions{Timeout: 10 * time.Second}}
	verifier := &sendervalid.DKIMVerifier{Resolver: res}
	evaluator := &sendervalid.DMARCEvaluator{Resolver: res}
	domainOf := func(address string) string {
		_, domain, _ := strings.Cut(address, "@")
		return domain
	}
	receiver := &sendervalid.SMTPServer{
		Hostname: "mx.receiver.example",
		Handler: sendervalid.SMTPHandler{
			OnMail: func(s *sendervalid.SMTPSession, from string) *sendervalid.SMTPReply {
				out := checker.CheckHost(context.Background(), s.ClientIP, domainOf(from), from, s.Helo)
				s.Meta["spf"] = out.Result
				fmt.Printf("  [receiver] SPF for %s from %s: %s\n", from, s.ClientIP, out.Result)
				return nil // defer enforcement to DMARC
			},
			OnMessage: func(s *sendervalid.SMTPSession, msg []byte) *sendervalid.SMTPReply {
				dk := verifier.Verify(context.Background(), msg)
				fmt.Printf("  [receiver] DKIM: %s (d=%s)\n", dk.Result, dk.Domain)
				fromDomain := domainOf(s.MailFrom)
				if m, err := mail.ReadMessage(bytes.NewReader(msg)); err == nil {
					if a, err := mail.ParseAddress(m.Header.Get("From")); err == nil {
						fromDomain = domainOf(a.Address)
					}
				}
				spfResult, _ := s.Meta["spf"].(sendervalid.SPFResult)
				dm := evaluator.Evaluate(context.Background(), sendervalid.DMARCInputs{
					FromDomain: fromDomain,
					SPFResult:  spfResult, SPFDomain: domainOf(s.MailFrom),
					DKIMResult: dk.Result, DKIMDomain: dk.Domain,
				})
				fmt.Printf("  [receiver] DMARC for %s: %s (disposition %s)\n", fromDomain, dm.Result, dm.Disposition)
				if dm.Result == "fail" && dm.Disposition == "reject" {
					return &sendervalid.SMTPReply{Code: 550, Text: "5.7.1 rejected by DMARC policy"}
				}
				return nil
			},
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go receiver.Serve(ln)
	defer receiver.Close()

	deliver := func(from string, msg []byte) {
		c, err := sendervalid.DialSMTP(context.Background(), ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer c.Abort()
		for _, step := range []func() error{
			func() error { return c.Hello("client.example") },
			func() error { return c.Mail(from) },
			func() error { return c.Rcpt("bob@receiver.example") },
			func() error { return c.Data(msg) },
		} {
			if err := step(); err != nil {
				fmt.Printf("  [sender] delivery refused: %v\n", err)
				return
			}
		}
		fmt.Println("  [sender] message accepted")
		_ = c.Quit()
	}

	message := "From: Alice <alice@legit-sender.example>\r\n" +
		"To: bob@receiver.example\r\n" +
		"Subject: quarterly report\r\n" +
		"Date: Mon, 06 Jul 2026 09:00:00 +0000\r\n" +
		"Message-ID: <q3@legit-sender.example>\r\n" +
		"\r\nNumbers attached.\r\n"
	signer := &sendervalid.DKIMSigner{Domain: "legit-sender.example", Selector: "mail", Key: priv}
	signed, err := signer.Sign([]byte(message))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== legitimate delivery (authorized host, valid signature) ===")
	deliver("alice@legit-sender.example", signed)

	fmt.Println("\n=== spoofed delivery (attacker's envelope, Alice's From:, no signature) ===")
	spoofed := "From: Alice <alice@legit-sender.example>\r\n" +
		"To: bob@receiver.example\r\n" +
		"Subject: urgent wire transfer\r\n" +
		"\r\nPlease send funds immediately.\r\n"
	deliver("mallory@attacker.example", []byte(spoofed))

	// Output:
	// === legitimate delivery (authorized host, valid signature) ===
	//   [receiver] SPF for alice@legit-sender.example from 127.0.0.1: pass
	//   [receiver] DKIM: pass (d=legit-sender.example)
	//   [receiver] DMARC for legit-sender.example: pass (disposition none)
	//   [sender] message accepted
	//
	// === spoofed delivery (attacker's envelope, Alice's From:, no signature) ===
	//   [receiver] SPF for mallory@attacker.example from 127.0.0.1: pass
	//   [receiver] DKIM: none (d=)
	//   [receiver] DMARC for legit-sender.example: fail (disposition reject)
	//   [sender] delivery refused: smtp: 550 5.7.1 rejected by DMARC policy
}

// Choose what a DKIM signature covers: sign only From and Subject, with
// simple canonicalization for both header and body. A header outside
// the signed set may change in transit; under simple canonicalization
// even refolded whitespace in a signed header breaks the signature,
// where the relaxed default (ExampleDKIMSigner) survives it.
func ExampleDKIMSigner_canonicalization() {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	keyRecord, err := sendervalid.FormatDKIMKey(pub)
	if err != nil {
		log.Fatal(err)
	}
	zone := sendervalid.NewStaticZone().DKIMKey("strict", "sender.example", keyRecord)
	authdns := &sendervalid.AuthServer{
		Zones: []*sendervalid.AuthZone{{Suffix: "sender.example.", LabelDepth: 1, Default: zone}},
	}
	dnsAddr, err := authdns.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = authdns.Shutdown(ctx)
	}()

	signer := &sendervalid.DKIMSigner{
		Domain: "sender.example", Selector: "strict", Key: priv,
		Headers:     []string{"From", "Subject"},
		HeaderCanon: "simple",
		BodyCanon:   "simple",
	}
	signed, err := signer.Sign([]byte("From: notify@sender.example\r\n" +
		"To: operator@recipient.example\r\n" +
		"Subject: vulnerability notification\r\n" +
		"\r\n" +
		"Details follow.\r\n"))
	if err != nil {
		log.Fatal(err)
	}
	sigLine, _, _ := strings.Cut(string(signed), "\r\n")
	fmt.Printf("signature header: %.60s...\n", sigLine)

	verifier := &sendervalid.DKIMVerifier{Resolver: sendervalid.NewResolver(sendervalid.ResolverConfig{Server: dnsAddr.String()})}
	ctx := context.Background()
	for _, c := range []struct{ what, from, to string }{
		{"as signed", "", ""},
		{"unsigned To rewritten", "To: operator@recipient.example", "To: list@recipient.example"},
		{"signed Subject refolded", "Subject: vulnerability notification", "Subject:  vulnerability notification"},
	} {
		out := verifier.Verify(ctx, []byte(strings.Replace(string(signed), c.from, c.to, 1)))
		fmt.Printf("%-24s %s\n", c.what+":", out.Result)
	}

	// Output:
	// signature header: DKIM-Signature: v=1; a=ed25519-sha256; c=simple/simple; d=se...
	// as signed:               pass
	// unsigned To rewritten:   pass
	// signed Subject refolded: fail
}

// Cap how many sessions a receiver serves at once. A connection over
// the cap is greeted with 421, which tells a well-behaved sender to
// retry later, and closed, instead of waiting in the accept queue.
func ExampleSMTPServer_maxConns() {
	receiver := &sendervalid.SMTPServer{Hostname: "mx.receiver.example", MaxConns: 1}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go receiver.Serve(ln)
	defer receiver.Close()

	first, err := sendervalid.DialSMTP(context.Background(), ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer first.Quit()
	fmt.Println("first session: greeted")

	_, err = sendervalid.DialSMTP(context.Background(), ln.Addr().String())
	fmt.Println("second session:", err)

	// Output:
	// first session: greeted
	// second session: smtp: 421 mx.receiver.example too many connections, try again later
}

// Evaluate DMARC for two From domains: one whose policy the message
// fails, and one whose policy cannot be fetched because the DNS refuses
// to answer. The second is a temperror, and Err says why, so a receiver
// can defer the message rather than guess.
func ExampleDMARCEvaluator() {
	zone := sendervalid.NewStaticZone().DMARC("bank.example", "v=DMARC1; p=reject")
	authdns := &sendervalid.AuthServer{
		Zones: []*sendervalid.AuthZone{{Suffix: "bank.example.", LabelDepth: 1, Default: zone}},
	}
	dnsAddr, err := authdns.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = authdns.Shutdown(ctx)
	}()

	evaluator := &sendervalid.DMARCEvaluator{
		Resolver: sendervalid.NewResolver(sendervalid.ResolverConfig{Server: dnsAddr.String()}),
	}
	for _, from := range []string{"bank.example", "elsewhere.example"} {
		out := evaluator.Evaluate(context.Background(), sendervalid.DMARCInputs{
			FromDomain: from,
			SPFResult:  sendervalid.SPFFail, SPFDomain: "attacker.example",
		})
		fmt.Printf("%s: %s, disposition %q, err %v\n", from, out.Result, out.Disposition, out.Err)
	}

	// Output:
	// bank.example: fail, disposition "reject", err <nil>
	// elsewhere.example: temperror, disposition "none", err resolver: REFUSED for _dmarc.elsewhere.example.
}
