package dns

import (
	"context"
	"errors"
	"net"
	"slices"
	"testing"
)

// refusingDialer fails every dial, so an exchange gets as far as
// assigning its transaction ID and no further.
type refusingDialer struct{}

func (refusingDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	return nil, errors.New("refused")
}

// TestClientIDsDifferAcrossClients: transaction IDs come from the
// runtime's randomly seeded generator, not from per-client state two
// clients created in the same instant would share (RFC 5452 §4.3).
func TestClientIDsDifferAcrossClients(t *testing.T) {
	ids := func(c *Client) []uint16 {
		var out []uint16
		for len(out) < 16 {
			q := new(Message).SetQuestion("example.com", TypeTXT)
			if _, err := c.Exchange(context.Background(), q, "192.0.2.1:53"); err == nil {
				t.Fatal("exchange through a refusing dialer succeeded")
			}
			out = append(out, q.ID)
		}
		return out
	}
	a := ids(&Client{Dialer: refusingDialer{}})
	b := ids(&Client{Dialer: refusingDialer{}})
	if slices.Equal(a, b) {
		t.Errorf("two clients emitted the same ID sequence %v", a)
	}
	if slices.Equal(a, make([]uint16, len(a))) {
		t.Error("every ID is zero")
	}
}
