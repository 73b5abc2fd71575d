package probe

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"sendervalid/internal/dkim"
	"sendervalid/internal/smtp"
)

// Target is a recipient MTA candidate in MX preference order.
type Target struct {
	Addr4 netip.Addr
	Addr6 netip.Addr
}

// Sender is the NotifyEmail sending MTA: it delivers a complete,
// DKIM-signed notification to the first responsive MX of a domain,
// exactly once per recipient (paper §4.6: "Once an email is delivered
// for a given domain, using a given MTA, no further MTAs are probed").
type Sender struct {
	// Dialer carries the connections (typically a netsim.BoundDialer
	// pinning the sending MTA's published address, so SPF passes).
	Dialer smtp.Dialer
	// Suffix is the From-domain zone, e.g. "dsav-mail.dns-lab.example".
	Suffix string
	// HeloDomain announces the sending MTA.
	HeloDomain string
	// Signer signs outgoing messages; its Domain field is set per
	// delivery. nil disables DKIM signing.
	Signer *dkim.Signer
	// ReplyTo is included in the message so recipients can respond
	// despite the unique From domain (paper §5.3).
	ReplyTo string
	// Timeout bounds each SMTP exchange.
	Timeout time.Duration
}

// Delivery records one NotifyEmail delivery attempt.
type Delivery struct {
	// Delivered reports a 250 acceptance of the full message.
	Delivered bool
	// MTAAddr is the address that accepted (or last refused).
	MTAAddr netip.Addr
	// AcceptedAt is the timestamp of the 250 reply to the message —
	// the tEmail of Figure 2.
	AcceptedAt time.Time
	// Attempts counts delivery rounds; Send makes exactly one, and a
	// runner that re-queues transient failures (experiment.
	// RunNotifyEmail) adds the rounds it scheduled. The paper filtered a
	// handful of Figure 2 samples caused by an earlier attempt
	// triggering validation and a later one delivering (§6.2).
	Attempts int
	// Err describes the failure when not delivered.
	Err error
}

// FromDomain builds the unique per-domain envelope sender domain
// (§4.4: spf-test@<domainid>.<suffix>).
func (s *Sender) FromDomain(domainID string) string {
	return domainID + "." + strings.TrimSuffix(s.Suffix, ".")
}

// Send makes one delivery round: the notification is offered to each
// target in MX preference order until one accepts it. A round that
// ends without acceptance reports the last refusal in Err — a
// temporary one (4xx, unreachable exchanger) is the caller's to
// re-queue, as a queueing MTA would; a 5xx is a bounce.
func (s *Sender) Send(ctx context.Context, domainID, recipient string, targets []Target, subject, body string) *Delivery {
	d := &Delivery{Attempts: 1}
	fromDomain := s.FromDomain(domainID)
	from := "spf-test@" + fromDomain

	msg := s.compose(from, recipient, subject, body)
	if s.Signer != nil {
		signer := *s.Signer
		signer.Domain = fromDomain
		signed, err := signer.Sign(msg)
		if err != nil {
			d.Err = fmt.Errorf("probe: signing: %w", err)
			return d
		}
		msg = signed
	}

	for _, target := range targets {
		for _, addr := range []netip.Addr{target.Addr4, target.Addr6} {
			if !addr.IsValid() {
				continue
			}
			d.MTAAddr = addr
			if d.Err = s.deliverTo(ctx, addr, from, recipient, msg); d.Err == nil {
				d.Delivered = true
				d.AcceptedAt = time.Now()
				return d
			}
		}
	}
	if d.Err == nil {
		d.Err = fmt.Errorf("probe: no reachable MTA for %s", recipient)
	}
	return d
}

func (s *Sender) deliverTo(ctx context.Context, addr netip.Addr, from, to string, msg []byte) error {
	cl, err := smtp.Dial(ctx, s.Dialer, netip.AddrPortFrom(addr, 25).String())
	if err != nil {
		return err
	}
	defer cl.Abort()
	if s.Timeout > 0 {
		cl.Timeout = s.Timeout
	}
	if err := cl.Hello(s.HeloDomain); err != nil {
		return err
	}
	if err := cl.Mail(from); err != nil {
		return err
	}
	if err := cl.Rcpt(to); err != nil {
		return err
	}
	if err := cl.Data(msg); err != nil {
		return err
	}
	_ = cl.Quit()
	return nil
}

// compose builds the notification message. The From header matches
// the envelope From so DMARC identifier alignment holds (§5.3).
func (s *Sender) compose(from, to, subject, body string) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "From: Network Measurement Study <%s>\r\n", from)
	fmt.Fprintf(&sb, "To: <%s>\r\n", to)
	fmt.Fprintf(&sb, "Subject: %s\r\n", subject)
	fmt.Fprintf(&sb, "Date: Mon, 05 Oct 2020 10:00:00 +0000\r\n")
	fmt.Fprintf(&sb, "Message-ID: <%s.%s>\r\n", sanitizeID(to), smtp.DomainOf(from))
	if s.ReplyTo != "" {
		fmt.Fprintf(&sb, "Reply-To: <%s>\r\n", s.ReplyTo)
	}
	sb.WriteString("\r\n")
	sb.WriteString(strings.ReplaceAll(body, "\n", "\r\n"))
	if !strings.HasSuffix(body, "\n") {
		sb.WriteString("\r\n")
	}
	return []byte(sb.String())
}

func sanitizeID(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
}
