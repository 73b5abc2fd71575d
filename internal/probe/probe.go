// Package probe implements the study's two sending-side tools: the
// custom SMTP probing client used against NotifyMX and TwoWeekMX
// targets (paper §4.6) — EHLO, MAIL, RCPT, DATA with configurable
// inter-command sleeps, a unique From address per (MTA, test policy),
// a recipient-guessing ladder, and a disconnect before any message
// content — and the NotifyEmail sending MTA, which delivers a real,
// DKIM-signed message to the first responsive MX of each recipient
// domain (the study used Exim4 for this role).
package probe

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"sendervalid/internal/smtp"
	"sendervalid/internal/trace"
)

// DefaultRecipients is the paper's username ladder (§4.4): common
// names first, postmaster as the fallback expected to exist anywhere.
var DefaultRecipients = []string{"michael", "john.smith", "support", "postmaster"}

// Client runs test-policy probes.
type Client struct {
	// Dialer carries the SMTP connections (a *netsim.Fabric or a
	// netsim.BoundDialer pinning the client's source address).
	Dialer smtp.Dialer
	// Suffix is the From-domain zone, e.g. "spf-test.dns-lab.example".
	Suffix string
	// HeloDomain is sent in EHLO/HELO. For the HELO test policy the
	// client substitutes helo.<testid>.<mtaid>.<suffix>.
	HeloDomain string
	// RecipientDomain is the domain part of guessed To addresses.
	RecipientDomain string
	// Sleep is inserted before MAIL, RCPT, and DATA (the paper used
	// 15 s; simulations use 0).
	Sleep time.Duration
	// Timeout bounds each SMTP exchange.
	Timeout time.Duration
	// HeloTestID is the test whose probe uses an instrumented HELO
	// name ("t03" in the catalog). Empty disables the substitution.
	HeloTestID string
}

// Stage identifies where in the SMTP dialogue a probe ended.
type Stage string

// Probe stages.
const (
	StageConnect Stage = "connect"
	StageHelo    Stage = "helo"
	StageMail    Stage = "mail"
	StageRcpt    Stage = "rcpt"
	StageData    Stage = "data"
	StageDone    Stage = "done"
)

// Result records one probe.
type Result struct {
	// Stage is how far the dialogue got (StageDone = DATA reply
	// received and connection dropped).
	Stage Stage
	// Recipient is the accepted To address, if any.
	Recipient string
	// ReplyCode and ReplyText describe the terminal reply (the DATA
	// reply on success, the rejection otherwise).
	ReplyCode int
	ReplyText string
	// Err is the transport or SMTP error that ended the probe early.
	Err error
}

// Rejected reports whether the probe was refused before DATA.
func (r *Result) Rejected() bool { return r.Stage != StageDone }

// MentionsSpam reports whether the rejection text cites spam.
func (r *Result) MentionsSpam() bool {
	return strings.Contains(strings.ToLower(r.ReplyText), "spam")
}

// MentionsBlacklist reports whether the rejection text cites a
// blacklist.
func (r *Result) MentionsBlacklist() bool {
	return strings.Contains(strings.ToLower(r.ReplyText), "blacklist")
}

// FromAddress builds the per-(test, MTA) envelope sender (§4.4).
func (c *Client) FromAddress(testID, mtaID string) string {
	return fmt.Sprintf("spf-test@%s.%s.%s", testID, mtaID, strings.TrimSuffix(c.Suffix, "."))
}

// sleep pauses for d before the next command, aborting promptly when
// the context is cancelled — a cancelled campaign must stop within one
// step, not finish the full EHLO→DATA walk.
func sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Probe runs one test policy against the MTA at addr. When ctx
// carries a trace span the SMTP dialogue is recorded as one
// "probe.smtp" span with a child per phase (connect, helo, mail,
// rcpt, data).
func (c *Client) Probe(ctx context.Context, addr netip.Addr, mtaID, testID string) *Result {
	res := &Result{Stage: StageConnect}
	ctx, sp := trace.Start(ctx, "probe.smtp")
	if sp != nil {
		sp.SetAttr("mta", mtaID)
		sp.SetAttr("test", testID)
	}
	defer func() {
		if sp != nil {
			sp.SetAttr("stage", string(res.Stage))
			sp.SetError(res.Err)
			sp.End()
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	target := netip.AddrPortFrom(addr, 25).String()

	_, psp := trace.Start(ctx, "probe.connect")
	cl, err := smtp.Dial(ctx, c.Dialer, target)
	psp.SetError(err)
	psp.End()
	if err != nil {
		res.Err = err
		fillReply(res, err)
		return res
	}
	defer cl.Abort()
	if c.Timeout > 0 {
		cl.Timeout = c.Timeout
	}

	helo := c.HeloDomain
	if c.HeloTestID != "" && testID == c.HeloTestID {
		helo = fmt.Sprintf("helo.%s.%s.%s", testID, mtaID, strings.TrimSuffix(c.Suffix, "."))
	}
	res.Stage = StageHelo
	for _, step := range [...]struct {
		stage Stage
		span  string
	}{{StageHelo, "probe.helo"}, {StageMail, "probe.mail"}, {StageRcpt, "probe.rcpt"}, {StageData, "probe.data"}} {
		pause := c.Sleep // before MAIL, RCPT and DATA, not HELO
		if step.stage == StageHelo {
			pause = 0
		}
		if err := sleep(ctx, pause); err != nil {
			res.Err = err
			return res
		}
		res.Stage = step.stage
		_, psp := trace.Start(ctx, step.span)
		var err error
		switch step.stage {
		case StageHelo:
			err = cl.Hello(helo)
		case StageMail:
			err = cl.Mail(c.FromAddress(testID, mtaID))
		case StageRcpt:
			err = c.rcpt(ctx, cl, res, psp)
		case StageData:
			res.ReplyCode, res.ReplyText, err = cl.DataCommand()
		}
		psp.SetError(err)
		psp.End()
		if err != nil {
			res.Err = err
			fillReply(res, err)
			return res
		}
	}
	// Disconnect without sending any content (§4.6): nothing can be
	// delivered.
	res.Stage = StageDone
	return res
}

// rcpt walks the recipient ladder until an address is accepted,
// recording it in res and on sp.
func (c *Client) rcpt(ctx context.Context, cl *smtp.Client, res *Result, sp *trace.Span) (err error) {
	for _, user := range DefaultRecipients {
		if err := ctx.Err(); err != nil {
			return err
		}
		to := user + "@" + c.RecipientDomain
		if err = cl.Rcpt(to); err == nil {
			res.Recipient = to
			break
		}
	}
	sp.SetAttr("recipient", res.Recipient)
	return err
}

func fillReply(res *Result, err error) {
	var smtpErr *smtp.Error
	if errors.As(err, &smtpErr) {
		res.ReplyCode, res.ReplyText = smtpErr.Code, smtpErr.Message
	}
}
