package policy

import "sendervalid/internal/dnsserver"

// StudyZones builds the study's two authoritative zones in serving
// order: the test-policy zone (every catalog policy, each answering
// its _dmarc name too) and the NotifyEmail zone whose first label is
// the recipient domain's id. notify.Contact is the attribution mailbox
// of both.
func StudyZones(env *Env, notify *NotifyEmailConfig) []*dnsserver.Zone {
	contact := dnsserver.FormatContact(notify.Contact)
	return []*dnsserver.Zone{
		{
			Suffix:     env.Suffix,
			Contact:    contact,
			Responders: RespondersWithDMARC(env, notify.Contact),
		},
		{
			Suffix:     notify.Suffix,
			Contact:    contact,
			LabelDepth: 1,
			Default:    notify.Responder(),
		},
	}
}
