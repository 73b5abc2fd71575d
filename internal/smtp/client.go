package smtp

import (
	"context"
	"fmt"
	"net"
	"net/textproto"
	"time"
)

// Dialer abstracts connection establishment, allowing clients to run
// over real sockets or the netsim fabric.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Client is a sending-MTA SMTP client. Replies are read, and
// messages dot-stuffed, by net/textproto over the pooled bufio pair.
type Client struct {
	conn net.Conn
	r    textproto.Reader
	w    textproto.Writer
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
	br, bw := getBuffers(conn)
	return &Client{conn: conn, r: textproto.Reader{R: br}, w: textproto.Writer{W: bw}}
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
	if c.w.W == nil {
		return 0, "", errClientClosed
	}
	_ = c.conn.SetDeadline(time.Now().Add(c.timeout()))
	if err := c.w.PrintfLine(format, args...); err != nil {
		return 0, "", fmt.Errorf("smtp: write: %w", err)
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

// readReply consumes one (possibly multiline) reply. Every line must
// carry a code and a space or hyphen, and a continuation ends only at
// a final line with the first line's code, as net/smtp reads them.
func (c *Client) readReply() (int, string, error) {
	_ = c.conn.SetReadDeadline(time.Now().Add(c.timeout()))
	code, text, err := c.r.ReadResponse(0)
	if err != nil {
		return 0, "", fmt.Errorf("smtp: reading reply: %w", err)
	}
	return code, text, nil
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
	dw := c.w.DotWriter()
	if _, err := dw.Write(msg); err != nil {
		return fmt.Errorf("smtp: writing message: %w", err)
	}
	if err := dw.Close(); err != nil {
		return fmt.Errorf("smtp: terminating message: %w", err)
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
	if c.r.R != nil {
		putBuffers(c.r.R, c.w.W)
		c.r, c.w = textproto.Reader{}, textproto.Writer{}
	}
	return c.conn.Close()
}
