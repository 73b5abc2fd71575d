// Package selftest implements the methodology improvement the paper
// proposes in §8: a self-service assessment tool. A mail-server
// operator supplies a mailbox they control; the tool sends one
// legitimate, DKIM-signed test message from a unique instrumented
// From domain and then reads the receiving server's SPF, DKIM, and
// DMARC validation behaviour off the authoritative DNS query log —
// the same inference the study performs, but with the recipient's
// consent and a legitimate address, eliminating the postmaster and
// blacklist blind spots of the probe experiments.
package selftest

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/fingerprint"
	"sendervalid/internal/probe"
	"sendervalid/internal/smtp"
)

// Assessment is the outcome of one self-test session.
type Assessment struct {
	// SessionID is the unique identifier embedded in the From domain.
	SessionID string
	// Address is the mailbox assessed.
	Address string
	// FromDomain is the instrumented sender domain used.
	FromDomain string
	// Delivered reports whether the test message was accepted.
	Delivered bool
	// DeliveryError carries the SMTP failure when not delivered.
	DeliveryError string

	// SPF: the receiving infrastructure fetched the SPF policy.
	SPF bool
	// SPFComplete: it also resolved the policy's address mechanism
	// (false + SPF true = the paper's §6.1 "partial validator").
	SPFComplete bool
	// DKIM: the DKIM public key was fetched.
	DKIM bool
	// DMARC: the DMARC policy was fetched.
	DMARC bool

	// Queries is the number of attributed DNS queries observed.
	Queries int
	// CompletedAt stamps the assessment.
	CompletedAt time.Time
}

// Grade summarizes the assessment as a human-readable verdict.
func (a *Assessment) Grade() string {
	switch {
	case !a.Delivered:
		return "undeliverable"
	case a.SPF && a.DKIM && a.DMARC:
		return "full sender validation (SPF + DKIM + DMARC)"
	case a.SPF && a.DKIM:
		return "validates SPF and DKIM, but does not enforce with DMARC"
	case a.SPF && !a.SPFComplete:
		return "starts but does not finish SPF validation"
	case a.SPF:
		return "validates SPF only"
	case a.DKIM:
		return "validates DKIM only"
	case a.DMARC:
		return "checks DMARC without authenticating SPF/DKIM (non-compliant)"
	default:
		return "no sender validation observed"
	}
}

// TargetResolver maps a recipient domain to its MX targets. In a real
// deployment this performs MX/A/AAAA resolution; in simulation it
// consults the dataset.
type TargetResolver func(ctx context.Context, domain string) ([]probe.Target, error)

// The test message every assessment delivers.
const (
	testSubject = "Sender-validation self-test"
	testBody    = "This message was requested through the sender-validation " +
		"self-test tool. Your mail infrastructure's SPF, DKIM, and " +
		"DMARC validation behaviour is being assessed; no action is " +
		"required.\n"
)

// Service runs assessment sessions.
type Service struct {
	// Sender delivers the test messages. Its Suffix is the
	// instrumented zone (NotifyEmail-style, LabelDepth 1).
	Sender *probe.Sender
	// Log is the authoritative server's query log for that zone.
	Log *dnsserver.QueryLog
	// Targets resolves recipient domains to MX targets.
	Targets TargetResolver
	// Settle is how long after delivery to keep watching for
	// validation activity (post-DATA validators lag; the paper saw up
	// to ~30 s). Zero means 2 s.
	Settle time.Duration

	mu      sync.Mutex
	counter int
}

func (s *Service) settle() time.Duration {
	if s.Settle > 0 {
		return s.Settle
	}
	return 2 * time.Second
}

// nextSessionID mints a unique, DNS-label-safe session id.
func (s *Service) nextSessionID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counter++
	return fmt.Sprintf("st%06d", s.counter)
}

// Assess runs one session against address.
func (s *Service) Assess(ctx context.Context, address string) (*Assessment, error) {
	domain := smtp.DomainOf(address)
	if domain == "" {
		return nil, fmt.Errorf("selftest: %q is not an email address", address)
	}
	session := s.nextSessionID()
	a := &Assessment{
		SessionID:  session,
		Address:    address,
		FromDomain: s.Sender.FromDomain(session),
	}

	targets, err := s.Targets(ctx, domain)
	if err != nil {
		return nil, fmt.Errorf("selftest: resolving %s: %w", domain, err)
	}
	delivery := s.Sender.Send(ctx, session, address, targets, testSubject, testBody)
	a.Delivered = delivery.Delivered
	if delivery.Err != nil {
		a.DeliveryError = delivery.Err.Error()
	}

	// Let late (post-DATA) validators act before reading the log.
	select {
	case <-time.After(s.settle()):
	case <-ctx.Done():
	}

	s.collect(a)
	a.CompletedAt = time.Now()
	return a, nil
}

// collect reads the session's validation activity off the query log.
func (s *Service) collect(a *Assessment) {
	obs := make(fingerprint.DomainObservations)
	s.Log.View(func(entries []dnsserver.LogEntry) {
		for i := range entries {
			if entries[i].MTAID == a.SessionID {
				obs.Add(&entries[i])
			}
		}
	})
	if o := obs[a.SessionID]; o != nil {
		a.SPF, a.SPFComplete, a.DKIM, a.DMARC = o.FetchedPolicy(), o.MTAAddr, o.DKIMKey, o.DMARC
		a.Queries = o.Queries
	}
}

// Render prints the assessment as a text report.
func Render(a *Assessment) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sender-validation assessment for %s\n", a.Address)
	fmt.Fprintf(&sb, "  session:    %s (From domain %s)\n", a.SessionID, a.FromDomain)
	if a.Delivered {
		sb.WriteString("  delivery:   accepted\n")
	} else {
		fmt.Fprintf(&sb, "  delivery:   FAILED (%s)\n", a.DeliveryError)
	}
	check := func(b bool) string {
		if b {
			return "observed"
		}
		return "not observed"
	}
	fmt.Fprintf(&sb, "  SPF:        %s\n", check(a.SPF))
	if a.SPF {
		fmt.Fprintf(&sb, "  SPF finish: %s\n", check(a.SPFComplete))
	}
	fmt.Fprintf(&sb, "  DKIM:       %s\n", check(a.DKIM))
	fmt.Fprintf(&sb, "  DMARC:      %s\n", check(a.DMARC))
	fmt.Fprintf(&sb, "  verdict:    %s\n", a.Grade())
	return sb.String()
}
