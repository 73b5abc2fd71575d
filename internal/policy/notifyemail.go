package policy

import (
	"net/netip"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
)

// NotifyEmailConfig describes the DNS view published for NotifyEmail
// From domains (paper §4.3.1). Every domain <domainid>.<suffix> gets:
//
//   - an SPF policy that authenticates the real sending MTA through an
//     "a" mechanism, preceded by a 3-level include chain with 100 ms
//     response shaping — the serial-vs-parallel elicitation (§7.1);
//   - A/AAAA records for the "a" target resolving to the sender;
//   - a DKIM public key at <selector>._domainkey.<domainid>.<suffix>;
//   - a strict-reject DMARC policy at _dmarc.<domainid>.<suffix> that
//     also publishes the experiment's contact address (§5.3).
type NotifyEmailConfig struct {
	// Suffix is the zone apex, e.g. "dsav-mail.dns-lab.example.".
	Suffix string
	// SenderV4 and SenderV6 are the legitimate sending MTA's addresses
	// (at least one must be valid).
	SenderV4 netip.Addr
	SenderV6 netip.Addr
	// DKIMSelector and DKIMKeyRecord publish the signing key.
	DKIMSelector  string
	DKIMKeyRecord string
	// Contact is the mailbox published in rua= for attribution.
	Contact string
	// TimeScale scales the 100 ms include-chain shaping.
	TimeScale float64
}

// The labels below a NotifyEmail domain's name that the domain fold
// (package fingerprint) reads: the SPF policy's a-mechanism target, the
// DMARC policy and, one label further down, the DKIM key's parent.
const (
	MTALabel   = "mta"
	DMARCLabel = "_dmarc"
	DKIMLabel  = "_domainkey"
)

// Responder synthesizes the NotifyEmail DNS view. Use it as the
// Default responder of a LabelDepth-1 zone.
func (cfg *NotifyEmailConfig) Responder() dnsserver.Responder {
	rows := []row{
		{typ: dns.TypeTXT, data: "v=spf1" + terms("include", serialChain[0].owner) + terms("a", MTALabel) + " -all"},
		dmarcRow(cfg.Contact),
	}
	if cfg.SenderV4.IsValid() {
		rows = append(rows, row{owner: MTALabel, typ: dns.TypeA, rdata: &dns.A{Addr: cfg.SenderV4}})
	}
	if cfg.SenderV6.IsValid() {
		rows = append(rows, row{owner: MTALabel, typ: dns.TypeAAAA, rdata: &dns.AAAA{Addr: cfg.SenderV6}})
	}
	if cfg.DKIMSelector != "" && cfg.DKIMKeyRecord != "" {
		rows = append(rows, row{owner: cfg.DKIMSelector + "." + DKIMLabel, typ: dns.TypeTXT, data: cfg.DKIMKeyRecord})
	}
	return newView(cfg.Suffix, 300, cfg.TimeScale, dnsserver.Response{}, newKeys(rows, serialChain), rows, serialChain) // TTL 300 s
}
