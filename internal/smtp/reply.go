// Package smtp implements the subset of the Simple Mail Transfer
// Protocol (RFC 5321) the measurement apparatus needs: a receiving-MTA
// server framework with per-command hooks (the attachment points for
// SPF/DKIM/DMARC validation policy), and a sending client that can
// both deliver legitimate messages and execute the study's probe
// sequence — EHLO, MAIL, RCPT, DATA with inter-command sleeps and a
// disconnect before any message content is transmitted (paper §4.6).
package smtp

import (
	"fmt"
	"strconv"
	"strings"
)

// Reply is an SMTP server reply.
type Reply struct {
	// Code is the three-digit reply code.
	Code int
	// Text is the reply's human-readable portion. Embedded newlines
	// produce a multiline reply.
	Text string
}

// Common replies.
var (
	ReplyOK             = &Reply{Code: 250, Text: "OK"}
	ReplyBye            = &Reply{Code: 221, Text: "Bye"}
	ReplyStartMail      = &Reply{Code: 354, Text: "End data with <CR><LF>.<CR><LF>"}
	ReplyBadSequence    = &Reply{Code: 503, Text: "Bad sequence of commands"}
	ReplyParamError     = &Reply{Code: 501, Text: "Syntax error in parameters"}
	ReplyNotImplemented = &Reply{Code: 502, Text: "Command not implemented"}
	ReplyNoSuchUser     = &Reply{Code: 550, Text: "No such user here"}
	ReplyLineTooLong    = &Reply{Code: 500, Text: "Line too long"}
)

// Positive reports whether the reply code indicates success (2xx/3xx).
func (r *Reply) Positive() bool { return r.Code >= 200 && r.Code < 400 }

// appendWire appends the reply in wire form to b, one line per line
// of Text: every line but the last continues with "-" after the code.
func (r *Reply) appendWire(b []byte) []byte {
	text := r.Text
	for {
		line, rest, more := strings.Cut(text, "\n")
		if c := r.Code; c >= 0 && c <= 999 {
			b = append(b, byte('0'+c/100), byte('0'+c/10%10), byte('0'+c%10))
		} else {
			b = strconv.AppendInt(b, int64(c), 10)
		}
		if more {
			b = append(b, '-')
		} else {
			b = append(b, ' ')
		}
		b = append(append(b, line...), "\r\n"...)
		if !more {
			return b
		}
		text = rest
	}
}

// Error is a non-2xx/3xx SMTP reply surfaced as a Go error.
type Error struct {
	Code    int
	Message string
}

func (e *Error) Error() string {
	return fmt.Sprintf("smtp: %d %s", e.Code, e.Message)
}

// Permanent reports whether the error is a 5xx permanent failure.
func (e *Error) Permanent() bool { return e.Code >= 500 }

// Temporary reports whether the error is a 4xx transient failure.
func (e *Error) Temporary() bool { return e.Code >= 400 && e.Code < 500 }

// ParseAddress extracts the address from a MAIL FROM / RCPT TO
// argument: "<user@example.com>" (angle brackets optional, ESMTP
// parameters after the address ignored). The null reverse-path "<>"
// returns an empty string with ok=true.
func ParseAddress(arg string) (addr string, ok bool) {
	arg = strings.TrimSpace(arg)
	if i := strings.IndexByte(arg, '<'); i >= 0 {
		j := strings.IndexByte(arg[i:], '>')
		if j < 0 {
			return "", false
		}
		return arg[i+1 : i+j], true
	}
	// Bare address form; strip trailing ESMTP parameters.
	if i := strings.IndexByte(arg, ' '); i >= 0 {
		arg = arg[:i]
	}
	if arg == "" {
		return "", false
	}
	return arg, true
}

// DomainOf returns the domain part of an address, lowercased, or ""
// when the address has none.
func DomainOf(addr string) string {
	i := strings.LastIndexByte(addr, '@')
	if i < 0 || i == len(addr)-1 {
		return ""
	}
	return strings.ToLower(addr[i+1:])
}

// LocalOf returns the local part of an address.
func LocalOf(addr string) string {
	i := strings.LastIndexByte(addr, '@')
	if i < 0 {
		return addr
	}
	return addr[:i]
}
