package smtp

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"
)

// Session carries the state of one SMTP connection through the
// handler hooks.
type Session struct {
	// ClientIP is the client's address. SPF validation evaluates it.
	ClientIP netip.Addr
	// Helo is the argument of the client's HELO/EHLO command.
	Helo string
	// Ehlo reports whether the client used EHLO (vs HELO).
	Ehlo bool
	// MailFrom is the envelope sender from MAIL FROM.
	MailFrom string
	// MailSeen reports whether a MAIL command was accepted in the
	// current transaction (the null reverse-path "<>" leaves MailFrom
	// empty but MailSeen true).
	MailSeen bool
	// RcptTo collects accepted envelope recipients.
	RcptTo []string

	// Meta is scratch space for handlers (e.g. per-session validation
	// results).
	Meta map[string]any
}

// reset clears per-transaction state after RSET / completed delivery.
func (s *Session) reset() {
	s.MailFrom = ""
	s.MailSeen = false
	s.RcptTo = nil
}

// Handler supplies per-command policy for a Server. Any nil hook (or
// nil *Reply return) applies the protocol default. Returning a
// negative reply refuses the command; the session continues.
type Handler struct {
	// OnConnect runs before the greeting. Returning a 5xx reply
	// greets-and-rejects (the spam/blacklist rejection behaviour the
	// paper observed from 28% of NotifyMX MTAs, §6.2).
	OnConnect func(s *Session) *Reply
	// OnHelo runs for HELO/EHLO; the paper's HELO test policy hooks
	// SPF HELO-identity validation here.
	OnHelo func(s *Session) *Reply
	// OnMail runs for MAIL FROM; real-time SPF validation of the MAIL
	// identity hooks here.
	OnMail func(s *Session, from string) *Reply
	// OnRcpt runs per RCPT TO; recipient validation and
	// postmaster-whitelisting logic hook here.
	OnRcpt func(s *Session, to string) *Reply
	// OnData runs for the DATA command itself, before any content.
	OnData func(s *Session) *Reply
	// OnMessage runs after the terminating dot with the full message.
	OnMessage func(s *Session, msg []byte) *Reply
}

// Server is a receiving MTA front end.
type Server struct {
	// Hostname is announced in the greeting and EHLO reply.
	Hostname string
	// Handler supplies command policy.
	Handler Handler
	// Extensions lists EHLO capability lines (e.g. "8BITMIME").
	Extensions []string
	// ReadTimeout bounds each exchange of a session in both directions:
	// the greeting's write, and from the start of each command (or DATA
	// line) read to the end of its reply's write. A client that stops
	// sending or stops reading loses its session, and its MaxConns
	// slot, after it. Zero means 60s.
	ReadTimeout time.Duration
	// MaxConns caps concurrent sessions; connections over the cap are
	// greeted with 421 and closed immediately (graceful shedding, not
	// a wedged accept queue). Zero means 1024.
	MaxConns int

	mu     sync.Mutex
	wg     sync.WaitGroup
	ln     []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// Per-session limits, so a byte-spewing or stalling client cannot grow
// memory or hold a session without bound.
const (
	// maxMessageBytes caps a DATA payload (RFC 1870's 552 over it).
	maxMessageBytes = 10 << 20
	// maxLineBytes caps one command line (RFC 5321 §4.5.3.1.6 requires
	// at least 512 octets; ESMTP in practice needs more). An over-long
	// line is consumed and answered 500, charging the error budget.
	maxLineBytes = 2048
	// maxErrors is the error budget: syntax errors, unknown commands,
	// bad sequences and over-long lines each charge it, and exceeding
	// it closes the session with 421.
	maxErrors = 10
	// maxCommands caps commands per session before a 421 close.
	maxCommands = 4096
)

// forget deregisters an active session connection (admit registers
// them, so Close can interrupt sessions blocked on reads).
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Serve accepts connections from ln, each served by ServeConn on its
// own goroutine, until the server shuts down. It may be called for
// several listeners concurrently. Transient accept errors — EMFILE-
// class descriptor exhaustion above all — are retried with exponential
// backoff instead of killing the accept loop.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.ln = append(s.ln, ln)
	s.mu.Unlock()
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			time.Sleep(delay)
			continue
		}
		delay = 0
		go s.ServeConn(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops all listeners and waits for active sessions.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	lns := s.ln
	s.ln = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) hostname() string {
	if s.Hostname != "" {
		return s.Hostname
	}
	return "mta.invalid"
}

// extendDeadline gives the session's next exchange ReadTimeout to
// finish, reads and writes alike.
func (s *Server) extendDeadline(conn net.Conn) {
	d := s.ReadTimeout
	if d <= 0 {
		d = 60 * time.Second
	}
	_ = conn.SetDeadline(time.Now().Add(d))
}

func (s *Server) maxConns() int {
	if s.MaxConns > 0 {
		return s.MaxConns
	}
	return 1024
}

// clientIP reads a RemoteAddr through its AddrPort method (*net.TCPAddr
// and the fabric's addresses have one), else by parsing its String.
func clientIP(addr net.Addr) netip.Addr {
	if a, ok := addr.(interface{ AddrPort() netip.AddrPort }); ok {
		return a.AddrPort().Addr().Unmap()
	}
	if addr == nil {
		return netip.Addr{}
	}
	ap, _ := netip.ParseAddrPort(addr.String())
	return ap.Addr().Unmap()
}

// admit registers the connection, enforcing the concurrent-session
// cap. overCap is true when the connection must be shed with 421.
// Unless the server is closed, it counts the connection in s.wg, under
// s.mu after the closed check, so Close's Wait never races an Add.
func (s *Server) admit(conn net.Conn) (ok, overCap bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	s.wg.Add(1)
	if len(s.conns) >= s.maxConns() {
		return false, true
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	return true, false
}

// ServeConn runs one SMTP session over conn on the caller's goroutine
// and closes conn when it ends. A connection over MaxConns is shed
// with 421; after Close, conn is closed unserved.
func (s *Server) ServeConn(conn net.Conn) {
	ok, overCap := s.admit(conn)
	if ok || overCap {
		defer s.wg.Done()
	}
	defer conn.Close()
	if overCap {
		// Graceful shedding: tell the client to come back rather than
		// letting it queue against a saturated server.
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		reply := &Reply{Code: 421, Text: s.hostname() + " too many connections, try again later"}
		_, _ = conn.Write(reply.appendWire(nil))
		return
	}
	if !ok {
		return
	}
	defer s.forget(conn)
	sess := &Session{
		ClientIP: clientIP(conn.RemoteAddr()),
		Meta:     make(map[string]any),
	}
	br, bw := getBuffers(conn)
	defer putBuffers(br, bw)
	send := func(r *Reply) bool {
		if _, err := bw.Write(r.appendWire(bw.AvailableBuffer())); err != nil {
			return false
		}
		return bw.Flush() == nil
	}

	// Per-session abuse budgets: protocol errors and total commands
	// are both bounded, and exhausting either closes with 421 instead
	// of looping forever against a byte-spewing or stalling client.
	commands, errs := 0, 0
	evict := func(text string) {
		send(&Reply{Code: 421, Text: s.hostname() + " " + text})
	}
	// chargeError charges one protocol error and sends r; it returns
	// false when the session must end (budget exhausted or dead conn).
	chargeError := func(r *Reply) bool {
		errs++
		if errs > maxErrors {
			evict("too many errors, closing connection")
			return false
		}
		return send(r)
	}
	// sendOutcome sends a command's reply, charging the error budget
	// for protocol-level failures (500–504: syntax errors, bad
	// sequences, unimplemented commands) but not for policy rejections
	// (550, 554, 4xx), which are legitimate measurement outcomes, not
	// abuse.
	sendOutcome := func(r *Reply) bool {
		if r.Code >= 500 && r.Code <= 504 {
			return chargeError(r)
		}
		return send(r)
	}

	greeting := &Reply{Code: 220, Text: s.hostname() + " ESMTP service ready"}
	if s.Handler.OnConnect != nil {
		if r := s.Handler.OnConnect(sess); r != nil {
			greeting = r
		}
	}
	s.extendDeadline(conn)
	if !send(greeting) || !greeting.Positive() {
		return
	}

	for {
		s.extendDeadline(conn)
		line, err := readCommandLine(br, maxLineBytes)
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				if !chargeError(ReplyLineTooLong) {
					return
				}
				continue
			}
			if errors.Is(err, errFlooded) {
				evict("line flood, closing connection")
			}
			return
		}
		commands++
		if commands > maxCommands {
			evict("too many commands, closing connection")
			return
		}
		verb, arg, _ := strings.Cut(line, " ")
		verb = strings.ToUpper(verb)

		switch verb {
		case "HELO", "EHLO":
			if arg == "" {
				if !chargeError(ReplyParamError) {
					return
				}
				continue
			}
			sess.Helo = arg
			sess.Ehlo = verb == "EHLO"
			sess.reset()
			reply := s.heloReply(sess)
			if s.Handler.OnHelo != nil {
				if r := s.Handler.OnHelo(sess); r != nil {
					reply = r
				}
			}
			if !send(reply) {
				return
			}

		case "MAIL":
			reply := s.handleMail(sess, arg)
			if !sendOutcome(reply) {
				return
			}

		case "RCPT":
			reply := s.handleRcpt(sess, arg)
			if !sendOutcome(reply) {
				return
			}

		case "DATA":
			if !sess.MailSeen && len(sess.RcptTo) == 0 {
				if !sendOutcome(ReplyBadSequence) {
					return
				}
				continue
			}
			if len(sess.RcptTo) == 0 {
				if !send(&Reply{Code: 554, Text: "No valid recipients"}) {
					return
				}
				continue
			}
			reply := ReplyStartMail
			if s.Handler.OnData != nil {
				if r := s.Handler.OnData(sess); r != nil {
					reply = r
				}
			}
			if !send(reply) {
				return
			}
			if reply.Code != 354 {
				continue
			}
			msg, refused, err := s.readData(conn, br)
			if err != nil {
				return
			}
			final := refused
			if final == nil {
				final = &Reply{Code: 250, Text: "OK: queued"}
				if s.Handler.OnMessage != nil {
					if r := s.Handler.OnMessage(sess, msg); r != nil {
						final = r
					}
				}
			}
			sess.reset()
			if !sendOutcome(final) {
				return
			}

		case "RSET":
			sess.reset()
			if !send(ReplyOK) {
				return
			}

		case "NOOP":
			if !send(ReplyOK) {
				return
			}

		case "QUIT":
			send(ReplyBye)
			return

		case "VRFY":
			if !send(&Reply{Code: 252, Text: "Cannot VRFY user"}) {
				return
			}

		default:
			if !chargeError(ReplyNotImplemented) {
				return
			}
		}
	}
}

func (s *Server) heloReply(sess *Session) *Reply {
	if !sess.Ehlo {
		return &Reply{Code: 250, Text: s.hostname()}
	}
	lines := append([]string{s.hostname() + " greets " + sess.Helo}, s.Extensions...)
	return &Reply{Code: 250, Text: strings.Join(lines, "\n")}
}

func (s *Server) handleMail(sess *Session, arg string) *Reply {
	upper := strings.ToUpper(arg)
	if !strings.HasPrefix(upper, "FROM:") {
		return ReplyParamError
	}
	if sess.Helo == "" {
		return ReplyBadSequence
	}
	addr, ok := ParseAddress(arg[len("FROM:"):])
	if !ok {
		return ReplyParamError
	}
	sess.reset()
	sess.MailFrom = addr
	sess.MailSeen = true
	if s.Handler.OnMail != nil {
		if r := s.Handler.OnMail(sess, addr); r != nil {
			if !r.Positive() {
				sess.MailFrom = ""
				sess.MailSeen = false
			}
			return r
		}
	}
	return ReplyOK
}

func (s *Server) handleRcpt(sess *Session, arg string) *Reply {
	upper := strings.ToUpper(arg)
	if !strings.HasPrefix(upper, "TO:") {
		return ReplyParamError
	}
	if !sess.MailSeen {
		return ReplyBadSequence
	}
	addr, ok := ParseAddress(arg[len("TO:"):])
	if !ok || addr == "" {
		return ReplyParamError
	}
	if s.Handler.OnRcpt != nil {
		if r := s.Handler.OnRcpt(sess, addr); r != nil {
			if r.Positive() {
				sess.RcptTo = append(sess.RcptTo, addr)
			}
			return r
		}
	}
	sess.RcptTo = append(sess.RcptTo, addr)
	return ReplyOK
}

// maxDataLine bounds one DATA text line. RFC 5321 §4.5.3.1.6 requires
// receivers to handle 1000 octets; 8 KiB tolerates sloppy senders
// while still bounding per-line memory.
const maxDataLine = 8192

// Line-discipline errors surfaced by readCommandLine.
var (
	errLineTooLong = errors.New("smtp: line too long")
	errFlooded     = errors.New("smtp: unterminated line flood")
)

// readCommandLine reads one newline-terminated line of at most max
// bytes. An over-long line is consumed to its terminator without being
// buffered and reported as errLineTooLong, so the caller can answer
// 500 and keep the session. A line that never terminates within a
// generous multiple of max is reported as errFlooded — a byte-spewing
// client the session should drop, with memory use bounded throughout.
func readCommandLine(br *bufio.Reader, max int) (string, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			if len(buf) > max {
				if derr := discardLine(br, 64*max); derr != nil {
					return "", derr
				}
				return "", errLineTooLong
			}
			continue
		}
		if err != nil {
			return "", err
		}
		if len(buf) > max {
			return "", errLineTooLong
		}
		return strings.TrimRight(string(buf), "\r\n"), nil
	}
}

// discardLine consumes input up to and including the next newline
// without buffering it, giving up after limit bytes.
func discardLine(br *bufio.Reader, limit int) error {
	discarded := 0
	for {
		frag, err := br.ReadSlice('\n')
		discarded += len(frag)
		if err == bufio.ErrBufferFull {
			if discarded > limit {
				return errFlooded
			}
			continue
		}
		return err
	}
}

// replyMessageTooBig refuses a DATA payload over maxMessageBytes
// (RFC 1870).
var replyMessageTooBig = &Reply{Code: 552, Text: "Message size exceeds fixed maximum message size"}

// readData consumes a DATA payload up to the terminating
// <CRLF>.<CRLF>, reversing dot-stuffing. A text line over maxDataLine
// or a payload over maxMessageBytes refuses the message but keeps the
// session: the rest of the payload is read and dropped up to the
// terminator, and the refusal — 500 (RFC 5321 §4.5.3.1.9) or 552 — is
// returned for the caller to send.
func (s *Server) readData(conn net.Conn, br *bufio.Reader) (msg []byte, refused *Reply, err error) {
	var buf bytes.Buffer
	for {
		s.extendDeadline(conn)
		line, err := readCommandLine(br, maxDataLine)
		switch {
		case errors.Is(err, errLineTooLong):
			refused = cmp.Or(refused, ReplyLineTooLong)
		case err != nil:
			return nil, nil, err
		case line == ".":
			if refused != nil {
				return nil, refused, nil
			}
			return buf.Bytes(), nil, nil
		case refused == nil:
			line = strings.TrimPrefix(line, ".") // un-stuff
			if buf.Len()+len(line)+2 > maxMessageBytes {
				refused = replyMessageTooBig
				continue
			}
			buf.WriteString(line)
			buf.WriteString("\r\n")
		}
	}
}
