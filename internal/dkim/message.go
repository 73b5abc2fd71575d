// Package dkim implements DomainKeys Identified Mail signatures
// (RFC 6376): RSA-SHA256 and Ed25519 signing, simple and relaxed
// canonicalization, DNS key-record handling, and verification. The
// measurement study's NotifyEmail experiment signs every outgoing
// notification with DKIM and publishes the public key in the DNS under
// <selector>._domainkey.<domain> (paper §4.3.1); receiving MTAs that
// validate DKIM reveal themselves by querying that name.
package dkim

import (
	"errors"
	"fmt"
	"strings"
)

// Header is one message header field, with its original raw text
// preserved for simple canonicalization.
type Header struct {
	// Name is the field name as it appeared (original case).
	Name string
	// Value is the field body, possibly folded across lines.
	Value string
	// Raw is the complete original field including the name, colon,
	// folding, and final CRLF.
	Raw string
}

// Message is a parsed RFC 5322 message: an ordered header list and the
// raw body.
type Message struct {
	Headers []Header
	Body    []byte
}

// ErrMalformedMessage reports a message without a proper header block.
var ErrMalformedMessage = errors.New("dkim: malformed message")

// ParseMessage splits a raw message into headers and body. Both CRLF
// and bare-LF messages are accepted; the body is returned as-is.
func ParseMessage(raw []byte) (*Message, error) {
	text := string(raw)
	// Find the header/body separator.
	sep := strings.Index(text, "\r\n\r\n")
	sepLen := 4
	if sep < 0 {
		sep = strings.Index(text, "\n\n")
		sepLen = 2
	}
	headerText := text
	body := ""
	if sep >= 0 {
		headerText = text[:sep+sepLen/2] // keep the final header newline
		body = text[sep+sepLen:]
	}

	msg := &Message{Body: []byte(body)}
	lines := splitLines(headerText)
	var current *Header
	for _, line := range lines {
		if line == "" {
			continue
		}
		if line[0] == ' ' || line[0] == '\t' {
			if current == nil {
				return nil, fmt.Errorf("%w: continuation line before any header", ErrMalformedMessage)
			}
			current.Value += "\r\n" + line
			current.Raw += line + "\r\n"
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%w: header line %q lacks a colon", ErrMalformedMessage, line)
		}
		msg.Headers = append(msg.Headers, Header{
			Name:  name,
			Value: value,
			Raw:   line + "\r\n",
		})
		current = &msg.Headers[len(msg.Headers)-1]
	}
	return msg, nil
}

// splitLines splits on CRLF or LF without keeping terminators.
func splitLines(s string) []string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// Get returns the value of the last header with the given name
// (case-insensitive), or "".
func (m *Message) Get(name string) string {
	for i := len(m.Headers) - 1; i >= 0; i-- {
		if strings.EqualFold(m.Headers[i].Name, name) {
			return strings.TrimSpace(unfold(m.Headers[i].Value))
		}
	}
	return ""
}

// unfold removes CRLF folding from a header value.
func unfold(v string) string {
	v = strings.ReplaceAll(v, "\r\n", "")
	return strings.ReplaceAll(v, "\n", "")
}

// Render reassembles the message into wire form with CRLF endings.
func (m *Message) Render() []byte {
	var sb strings.Builder
	for _, h := range m.Headers {
		sb.WriteString(h.Raw)
	}
	sb.WriteString("\r\n")
	sb.Write(m.Body)
	return []byte(sb.String())
}

// Prepend inserts a header at the top of the message (where a
// signature header belongs).
func (m *Message) Prepend(name, value string) {
	h := Header{Name: name, Value: " " + value, Raw: name + ": " + value + "\r\n"}
	m.Headers = append([]Header{h}, m.Headers...)
}
