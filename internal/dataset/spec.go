// Package dataset synthesizes the measurement study's target
// populations. The paper's raw data — 26,695 vulnerability-notification
// recipient domains (NotifyEmail/NotifyMX) and 22,548 domains from two
// weeks of BYU MX query logs (TwoWeekMX) — is not public, so this
// package generates populations whose observable joint distributions
// match what the paper reports: dataset sizes and IPv4/IPv6 MTA splits
// (Table 2), TLD shares (Table 1), AS shares with provider-grade MTA
// sharing (Table 3), per-domain MX-query demand for the decile
// analysis (Table 5), Alexa-style popularity ranks (Table 7), and the
// 19 named mail providers of Table 6. Generation is deterministic for
// a given seed.
package dataset

// TLDWeight is one entry of a TLD popularity table.
type TLDWeight struct {
	TLD    string
	Weight float64 // fraction of domains
}

// NotifyEmailTLDs reproduces Table 1 (left): the top-10 TLD shares of
// the NotifyEmail set; the remainder spreads over 249 more TLDs.
var NotifyEmailTLDs = []TLDWeight{
	{"com", 0.26}, {"net", 0.13}, {"ru", 0.083}, {"pl", 0.050},
	{"br", 0.045}, {"de", 0.040}, {"ua", 0.025}, {"it", 0.019},
	{"cz", 0.016}, {"ro", 0.016},
}

// TwoWeekMXTLDs reproduces Table 1 (right).
var TwoWeekMXTLDs = []TLDWeight{
	{"com", 0.49}, {"org", 0.17}, {"edu", 0.090}, {"net", 0.063},
	{"us", 0.036}, {"gov", 0.011}, {"uk", 0.011}, {"cam", 0.010},
	{"ca", 0.0076}, {"de", 0.0066},
}

// ASWeight is one entry of an AS popularity table.
type ASWeight struct {
	ASN  int
	Name string
	// DomainShare is the fraction of domains with an MTA in this AS.
	DomainShare float64
	// MTAPool is how many distinct MTA hosts the AS operates; small
	// pools model providers that serve many domains from few MTAs.
	MTAPool int
}

// NotifyEmailASes reproduces Table 3 (left): the top-10 ASes by domain
// share; the long tail spreads across 10,937 total ASes.
var NotifyEmailASes = []ASWeight{
	{16509, "Amazon", 0.023, 400},
	{26211, "Proofpoint", 0.017, 60},
	{22843, "Proofpoint", 0.016, 60},
	{46606, "Unified Layer", 0.013, 120},
	{16276, "OVH", 0.0095, 200},
	{24940, "Hetzner", 0.0092, 200},
	{16417, "IronPort", 0.0091, 80},
	{14618, "Amazon", 0.0088, 300},
	{12824, "home.pl", 0.0054, 60},
	{52129, "Proofpoint", 0.0043, 40},
}

// NotifyEmailTotalASes is the total AS count of the NotifyEmail set.
const NotifyEmailTotalASes = 10937

// TwoWeekMXASes reproduces Table 3 (right). Google and Microsoft host
// half of the domains from comparatively small MTA pools, which drives
// the domain:MTA ratio of Table 2 (22,548 domains on 11,137 MTAs).
var TwoWeekMXASes = []ASWeight{
	{15169, "Google", 0.32, 120},
	{8075, "Microsoft", 0.20, 150},
	{16509, "Amazon", 0.043, 300},
	{22843, "Proofpoint", 0.041, 80},
	{26211, "Proofpoint", 0.032, 60},
	{30031, "Mimecast", 0.023, 60},
	{14618, "Amazon", 0.017, 200},
	{26496, "GoDaddy", 0.016, 250},
	{46606, "Unified Layer", 0.013, 120},
	{16417, "IronPort", 0.012, 80},
}

// TwoWeekMXTotalASes is the total AS count of the TwoWeekMX set.
const TwoWeekMXTotalASes = 1795

// Paper dataset sizes (Table 2).
const (
	NotifyEmailDomains = 26695
	TwoWeekMXDomains   = 22548

	NotifyEmailMTAsV4 = 17252
	NotifyEmailMTAsV6 = 1599
	TwoWeekMXMTAsV4   = 10666
	TwoWeekMXMTAsV6   = 471
)

// Provider is one of the 19 popular mail providers of Table 6, with
// the validation status the NotifyEmail experiment observed.
type Provider struct {
	Domain string
	SPF    bool
	DKIM   bool
	DMARC  bool
}

// Providers reproduces Table 6.
var Providers = []Provider{
	{"hotmail.com", true, true, true},
	{"gmail.com", true, true, true},
	{"yahoo.com", true, true, true},
	{"aol.com", true, true, true},
	{"gmx.de", true, true, false},
	{"mail.ru", true, true, true},
	{"yahoo.co.in", true, true, true},
	{"comcast.net", true, true, true},
	{"web.de", true, true, false},
	{"qq.com", false, false, false},
	{"yahoo.co.jp", true, true, true},
	{"naver.com", true, true, true},
	{"163.com", false, false, false},
	{"libero.it", true, true, true},
	{"yandex.ru", true, true, true},
	{"daum.net", true, true, false},
	{"cox.net", true, true, true},
	{"att.net", false, false, false},
	{"wp.pl", true, true, true},
}

// Alexa membership counts within NotifyEmail (Table 7).
const (
	AlexaTop1MInNotifyEmail = 2953
	AlexaTop1KInNotifyEmail = 87
)
