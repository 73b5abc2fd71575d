package dmarc

import "strings"

// multiLabelSuffixes is an embedded subset of the public suffix list
// covering the multi-label registries that dominate real mail traffic
// (the full PSL is a build-time data dependency this offline module
// avoids; single-label TLDs need no table). Wildcard registries are
// approximated by their common second-level labels.
var multiLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true, "me.uk": true,
	"net.uk": true, "sch.uk": true, "ltd.uk": true, "plc.uk": true,
	"com.au": true, "net.au": true, "org.au": true, "edu.au": true, "gov.au": true,
	"com.br": true, "net.br": true, "org.br": true, "gov.br": true, "edu.br": true,
	"co.jp": true, "ne.jp": true, "or.jp": true, "ac.jp": true, "go.jp": true,
	"co.in": true, "net.in": true, "org.in": true, "ac.in": true, "gov.in": true,
	"co.nz": true, "net.nz": true, "org.nz": true, "govt.nz": true,
	"co.za": true, "org.za": true, "web.za": true, "gov.za": true,
	"com.cn": true, "net.cn": true, "org.cn": true, "gov.cn": true, "edu.cn": true,
	"com.tw": true, "org.tw": true, "edu.tw": true,
	"com.hk": true, "org.hk": true, "edu.hk": true,
	"com.sg": true, "org.sg": true, "edu.sg": true,
	"com.mx": true, "org.mx": true, "edu.mx": true, "gob.mx": true,
	"com.ar": true, "org.ar": true, "edu.ar": true, "gob.ar": true,
	"com.co": true, "org.co": true, "edu.co": true, "gov.co": true,
	"com.tr": true, "org.tr": true, "edu.tr": true, "gov.tr": true,
	"com.pl": true, "org.pl": true, "net.pl": true, "edu.pl": true, "gov.pl": true,
	"com.ru": true, "org.ru": true, "net.ru": true,
	"com.ua": true, "org.ua": true, "net.ua": true, "edu.ua": true, "gov.ua": true,
	"co.kr": true, "or.kr": true, "ac.kr": true, "go.kr": true,
	"com.my": true, "org.my": true, "edu.my": true, "gov.my": true,
	"co.id": true, "or.id": true, "ac.id": true, "go.id": true,
	"com.ph": true, "org.ph": true, "edu.ph": true, "gov.ph": true,
	"com.vn": true, "org.vn": true, "edu.vn": true, "gov.vn": true,
	"co.il": true, "org.il": true, "ac.il": true, "gov.il": true,
	"com.eg": true, "org.eg": true, "edu.eg": true, "gov.eg": true,
	"com.sa": true, "org.sa": true, "edu.sa": true, "gov.sa": true,
	"co.th": true, "or.th": true, "ac.th": true, "go.th": true,
	"com.es": true, "org.es": true, "edu.es": true, "gob.es": true,
	"edu.it": true, "gov.it": true,
	"asso.fr": true, "gouv.fr": true,
	"com.de": true,
	"co.at":  true, "or.at": true, "ac.at": true, "gv.at": true,
	"com.pt": true, "org.pt": true, "edu.pt": true, "gov.pt": true,
	"com.gr": true, "org.gr": true, "edu.gr": true, "gov.gr": true,
	"com.ro": true, "org.ro": true,
	"com.cz":  true,
	"priv.no": true,
	"gc.ca":   true, "on.ca": true, "qc.ca": true, "bc.ca": true, "ab.ca": true,
	"k12.ca.us": true, "cc.ca.us": true, "state.ca.us": true,
}

// OrganizationalDomain returns the organizational domain of name: the
// public suffix plus one label (RFC 7489 §3.2). A name that is itself
// a public suffix (or shorter) is returned unchanged. Case and
// trailing dots are dropped first, so the result is its own
// organizational domain.
func OrganizationalDomain(name string) string {
	name = strings.ToLower(strings.TrimRight(name, "."))
	labels := strings.Split(name, ".")
	if len(labels) <= 2 {
		return name
	}
	// Longest matching multi-label suffix wins; check three-label
	// suffixes before two-label ones.
	for take := 3; take >= 2; take-- {
		if len(labels) <= take {
			continue
		}
		suffix := strings.Join(labels[len(labels)-take:], ".")
		if multiLabelSuffixes[suffix] {
			return strings.Join(labels[len(labels)-take-1:], ".")
		}
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

// Aligned reports whether the authenticated domain aligns with the
// RFC5322.From domain under the given mode: exact match for strict,
// same organizational domain for relaxed (RFC 7489 §3.1).
func Aligned(authDomain, fromDomain string, mode AlignmentMode) bool {
	a := strings.ToLower(strings.TrimRight(authDomain, "."))
	f := strings.ToLower(strings.TrimRight(fromDomain, "."))
	if a == "" || f == "" {
		return false
	}
	if mode == Strict {
		return a == f
	}
	return OrganizationalDomain(a) == OrganizationalDomain(f)
}
