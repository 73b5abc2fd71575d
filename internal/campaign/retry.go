package campaign

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"

	"sendervalid/internal/netsim"
	"sendervalid/internal/smtp"
)

// Class is the scheduling meaning of a TaskFunc outcome.
type Class int

// Outcome classes.
const (
	// Done is a completed task: the attempt produced a recordable
	// outcome (including measurement outcomes like SMTP rejections —
	// a 554 from a blacklisting MTA is data, not a failure).
	Done Class = iota
	// Transient is a failure worth retrying: the destination may well
	// answer later (connection refused, timeout, 4xx SMTP reply,
	// dropped connection).
	Transient
	// Terminal is a failure retrying cannot fix (5xx SMTP replies,
	// malformed addresses); the task fails without consuming the
	// remaining attempt budget.
	Terminal
	// Aborted is a voided attempt: the campaign's context was
	// cancelled mid-attempt. The task stays pending — and unfinished
	// in the journal — so a resumed campaign re-runs it.
	Aborted
)

// String renders the class for logs and tests.
func (c Class) String() string {
	switch c {
	case Done:
		return "done"
	case Transient:
		return "transient"
	case Terminal:
		return "terminal"
	case Aborted:
		return "aborted"
	}
	return "unknown"
}

// DefaultClassify maps the errors the measurement stack produces onto
// scheduling classes:
//
//   - nil → Done
//   - context cancellation/deadline → Aborted
//   - 4xx SMTP replies → Transient (the destination asked us to come
//     back later: greylisting, temporary local errors)
//   - 5xx SMTP replies → Terminal
//   - connection refused (a refused dial or a link flap, on a host
//     socket or the fabric), connection reset, I/O deadlines, network
//     timeouts, dropped connections → Transient
//   - anything else → Terminal
func DefaultClassify(err error) Class {
	if err == nil {
		return Done
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Aborted
	}
	var smtpErr *smtp.Error
	if errors.As(err, &smtpErr) {
		if smtpErr.Temporary() {
			return Transient
		}
		return Terminal
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, netsim.ErrDeadlineExceeded) {
		return Transient
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return Transient
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) {
		return Transient
	}
	return Terminal
}
