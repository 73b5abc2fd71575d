package sendervalid

// This file is the library's public facade. The implementation lives
// under internal/ (see README for the package map); the aliases below
// re-export the stable core so external modules can depend on
// `sendervalid` directly:
//
//	checker := &sendervalid.SPFChecker{Resolver: sendervalid.NewResolver(cfg)}
//	out := checker.CheckHost(ctx, ip, domain, sender, helo)
//
// Measurement-apparatus packages (policy catalog, probing client,
// dataset generator, experiment drivers) are deliberately not
// re-exported: they evolve with the reproduction, and in-module
// consumers (cmd/, examples/) import them directly.

import (
	"context"

	"sendervalid/internal/dkim"
	"sendervalid/internal/dmarc"
	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/resolver"
	"sendervalid/internal/smtp"
	"sendervalid/internal/spf"
)

// --- SPF (RFC 7208) ---

// SPFChecker evaluates the Sender Policy Framework check_host()
// function, with compliance knobs for emulating non-conformant
// validators. See internal/spf.
type SPFChecker = spf.Checker

// SPFOptions tunes an SPFChecker.
type SPFOptions = spf.Options

// SPFResult is one of the seven RFC 7208 results.
type SPFResult = spf.Result

// SPFOutcome carries the result plus lookup diagnostics.
type SPFOutcome = spf.Outcome

// SPFRecord is a parsed SPF policy.
type SPFRecord = spf.Record

// SPFLinter statically analyzes SPF deployments.
type SPFLinter = spf.Linter

// The seven SPF results.
const (
	SPFNone      = spf.None
	SPFNeutral   = spf.Neutral
	SPFPass      = spf.Pass
	SPFFail      = spf.Fail
	SPFSoftFail  = spf.SoftFail
	SPFTempError = spf.TempError
	SPFPermError = spf.PermError
)

// ParseSPF parses an SPF record's text.
func ParseSPF(txt string) (*SPFRecord, error) { return spf.Parse(txt) }

// --- DKIM (RFC 6376) ---

// DKIMSigner signs outgoing messages.
type DKIMSigner = dkim.Signer

// DKIMVerifier verifies DKIM signatures via the DNS.
type DKIMVerifier = dkim.Verifier

// DKIMVerification is one signature's verification outcome.
type DKIMVerification = dkim.Verification

// DKIMResult is a verification result (pass/fail/none/…).
type DKIMResult = dkim.Result

// FormatDKIMKey renders the _domainkey TXT payload for a public key.
func FormatDKIMKey(pub any) (string, error) { return dkim.FormatKeyRecord(pub) }

// --- DMARC (RFC 7489) ---

// DMARCEvaluator discovers policies and applies the DMARC pass rule.
type DMARCEvaluator = dmarc.Evaluator

// DMARCRecord is a parsed DMARC policy record.
type DMARCRecord = dmarc.Record

// DMARCEvaluation is the outcome of applying DMARC to a message.
type DMARCEvaluation = dmarc.Evaluation

// DMARCInputs carries the authentication results DMARC consumes.
type DMARCInputs = dmarc.Inputs

// ParseDMARC parses a DMARC record's text.
func ParseDMARC(txt string) (*DMARCRecord, error) { return dmarc.Parse(txt) }

// OrganizationalDomain returns the RFC 7489 organizational domain.
func OrganizationalDomain(name string) string { return dmarc.OrganizationalDomain(name) }

// --- DNS ---

// DNSMessage is a wire-format DNS message.
type DNSMessage = dns.Message

// DNSClient performs UDP/TCP DNS exchanges.
type DNSClient = dns.Client

// DNSServer serves DNS over UDP and TCP.
type DNSServer = dns.Server

// Resolver is the caching stub resolver (implements the lookup
// interfaces consumed by SPFChecker, DKIMVerifier, DMARCEvaluator).
type Resolver = resolver.Resolver

// ResolverConfig configures a Resolver.
type ResolverConfig = resolver.Config

// NewResolver creates a stub resolver bound to one upstream server.
func NewResolver(cfg ResolverConfig) *Resolver { return resolver.New(cfg) }

// AuthServer is the synthesizing authoritative server with its
// attributed query log.
type AuthServer = dnsserver.Server

// AuthZone is one authoritative suffix.
type AuthZone = dnsserver.Zone

// StaticZone is a conventional record-set responder for small zones.
type StaticZone = dnsserver.Static

// NewStaticZone creates an empty static record set.
func NewStaticZone() *StaticZone { return dnsserver.NewStatic() }

// QueryLog is the timestamped, attributed query record.
type QueryLog = dnsserver.QueryLog

// --- SMTP (RFC 5321) ---

// SMTPServer is the receiving-MTA server framework with per-command
// policy hooks.
type SMTPServer = smtp.Server

// SMTPHandler supplies the per-command hooks.
type SMTPHandler = smtp.Handler

// SMTPSession is one connection's state, passed to hooks.
type SMTPSession = smtp.Session

// SMTPReply is a server reply.
type SMTPReply = smtp.Reply

// SMTPClient is the sending-side client.
type SMTPClient = smtp.Client

// DialSMTP connects to an SMTP server over TCP and consumes its
// greeting.
func DialSMTP(ctx context.Context, addr string) (*SMTPClient, error) {
	return smtp.Dial(ctx, nil, addr)
}
