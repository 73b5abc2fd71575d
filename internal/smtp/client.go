package smtp

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Dialer abstracts connection establishment, allowing clients to run
// over real sockets or the netsim fabric.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Client is a sending-MTA SMTP client.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// Timeout bounds each command/reply exchange. Zero means 30s.
	Timeout time.Duration
}

// Dial connects to addr and consumes the greeting. A nil dialer uses
// real sockets.
func Dial(ctx context.Context, dialer Dialer, addr string) (*Client, error) {
	if dialer == nil {
		dialer = &net.Dialer{}
	}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("smtp: dialing %s: %w", addr, err)
	}
	c := NewClient(conn)
	code, text, err := c.readReply()
	if err != nil {
		c.Abort()
		return nil, err
	}
	if code != 220 {
		c.Abort()
		return nil, &Error{Code: code, Message: text}
	}
	return c, nil
}

// NewClient wraps an established connection. The caller must consume
// the greeting (Dial does this automatically). The client's buffers
// come from the package pool; Quit or Abort hands them back.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn}
	c.br, c.bw = getBuffers(conn)
	return c
}

// errClientClosed answers a command issued after Quit or Abort.
var errClientClosed = fmt.Errorf("smtp: client closed: %w", net.ErrClosed)

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

// Cmd sends one command line and returns the reply. A non-2xx/3xx
// reply is returned as *Error.
func (c *Client) Cmd(format string, args ...any) (int, string, error) {
	if c.bw == nil {
		return 0, "", errClientClosed
	}
	_ = c.conn.SetDeadline(time.Now().Add(c.timeout()))
	if _, err := fmt.Fprintf(c.bw, format+"\r\n", args...); err != nil {
		return 0, "", fmt.Errorf("smtp: write: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return 0, "", fmt.Errorf("smtp: flush: %w", err)
	}
	code, text, err := c.readReply()
	if err != nil {
		return 0, "", err
	}
	if code >= 400 {
		return code, text, &Error{Code: code, Message: text}
	}
	return code, text, nil
}

// readReply consumes one (possibly multiline) reply.
func (c *Client) readReply() (int, string, error) {
	_ = c.conn.SetReadDeadline(time.Now().Add(c.timeout()))
	var lines []string
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return 0, "", fmt.Errorf("smtp: reading reply: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if len(line) < 3 {
			return 0, "", fmt.Errorf("smtp: short reply line %q", line)
		}
		code, err := strconv.Atoi(line[:3])
		if err != nil {
			return 0, "", fmt.Errorf("smtp: bad reply code in %q", line)
		}
		text := ""
		cont := false
		if len(line) > 3 {
			cont = line[3] == '-'
			text = line[4:]
		}
		lines = append(lines, text)
		if !cont {
			return code, strings.Join(lines, "\n"), nil
		}
	}
}

// Hello negotiates EHLO, falling back to HELO when the server rejects
// it — the probe client's behaviour per paper §4.6.
func (c *Client) Hello(heloDomain string) error {
	code, _, err := c.Cmd("EHLO %s", heloDomain)
	if err == nil && code == 250 {
		return nil
	}
	if smtpErr, ok := err.(*Error); ok && smtpErr.Permanent() {
		if _, _, err := c.Cmd("HELO %s", heloDomain); err != nil {
			return err
		}
		return nil
	}
	return err
}

// Mail sends MAIL FROM with the given envelope sender.
func (c *Client) Mail(from string) error {
	_, _, err := c.Cmd("MAIL FROM:<%s>", from)
	return err
}

// Rcpt sends RCPT TO with the given envelope recipient.
func (c *Client) Rcpt(to string) error {
	_, _, err := c.Cmd("RCPT TO:<%s>", to)
	return err
}

// Data sends the DATA command and, on 354, the dot-stuffed message
// followed by the terminating dot.
func (c *Client) Data(msg []byte) error {
	code, text, err := c.Cmd("DATA")
	if err != nil {
		return err
	}
	if code != 354 {
		return &Error{Code: code, Message: text}
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout()))
	if _, err := c.bw.WriteString(DotStuff(msg)); err != nil {
		return fmt.Errorf("smtp: writing message: %w", err)
	}
	if _, err := c.bw.WriteString(".\r\n"); err != nil {
		return fmt.Errorf("smtp: terminating message: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("smtp: flushing message: %w", err)
	}
	code, text, err = c.readReply()
	if err != nil {
		return err
	}
	if code != 250 {
		return &Error{Code: code, Message: text}
	}
	return nil
}

// DataCommand sends only the DATA command and returns its reply,
// without transmitting any content — the probe client stops here and
// disconnects so no message can ever be accepted (paper §4.6).
func (c *Client) DataCommand() (int, string, error) {
	return c.Cmd("DATA")
}

// Quit ends the session politely.
func (c *Client) Quit() error {
	_, _, err := c.Cmd("QUIT")
	c.Abort()
	return err
}

// Abort drops the TCP connection without QUIT — how the probe client
// leaves after the DATA reply — and returns the client's buffers to
// the pool. It is safe after Quit and more than once.
func (c *Client) Abort() error {
	if c.br != nil {
		putBuffers(c.br, c.bw)
		c.br, c.bw = nil, nil
	}
	return c.conn.Close()
}

// DotStuff prepares a message body for DATA transmission: normalizes
// line endings to CRLF and doubles leading dots (RFC 5321 §4.5.2).
func DotStuff(msg []byte) string {
	text := strings.ReplaceAll(string(msg), "\r\n", "\n")
	lines := strings.Split(text, "\n")
	var sb strings.Builder
	for i, line := range lines {
		if i == len(lines)-1 && line == "" {
			break // avoid a trailing blank line from a final newline
		}
		if strings.HasPrefix(line, ".") {
			sb.WriteByte('.')
		}
		sb.WriteString(line)
		sb.WriteString("\r\n")
	}
	return sb.String()
}
