package main

// Example runs the audit. The sender-side lint is a pure function of
// the published records, and the receiver-side fingerprint is forced by
// the planted profile (a serial validator that ignores the void- and
// MX-lookup limits), so the whole report is the test.
func Example() {
	main()
	// Output:
	// == sender-side audit: SPF deployment of flawed-corp.example ==
	// record:  v=spf1 include:l1.flawed-corp.example ptr a mx exists:e1.flawed-corp.example exists:e2.flawed-corp.example exists:e3.flawed-corp.example +all
	// lookups: 18 (limit 10)
	//   warning[ptr] ptr: ptr is slow, unreliable, and deprecated by RFC 7208 §5.5
	//   error[pass-all] all: +all authorizes the whole Internet to send for this domain
	//   error[include-none] missing.flawed-corp.example: include/redirect target has no SPF record (permerror)
	//   error[lookup-limit] evaluating this policy requires up to 18 DNS-querying terms; the limit is 10
	//   warning[void-risk] 11 mechanisms may produce void lookups; validators permit 2
	//
	// == receiver-side audit: the organization's MTA ==
	// corpmx [yynnnnnnnynn] serial=y lookup-limit=y full-tree=n helo=n tolerant-main=n tolerant-child=n void-limit=n mx-fallback=n follows-one=n tcp=y ipv6=n mx-limit=n
	// classification against reference validator profiles:
	//   strict-rfc7208          80% agreement (8/10 traits)
	//   limit-ignoring-legacy   57% agreement (4/7 traits)
	//   parallel-prefetcher     50% agreement (1/2 traits)
	//   tolerant-forgiving      40% agreement (2/5 traits)
}
