package main

// Example runs the quickstart: every line it prints is deterministic,
// so the output is the test.
func Example() {
	main()
	// Output:
	// authoritative DNS on loopback serving 39 test policies
	// simulated MTA listening at 203.0.113.25:25 (fabric)
	// probe: stage=done recipient=michael@recipient.example reply=354
	//
	// queries observed at the authoritative server:
	//   TXT   t01.m0001.spf-test.dns-lab.example.                     test=t01 mta=m0001
	//   TXT   l1.t01.m0001.spf-test.dns-lab.example.                  test=t01 mta=m0001
	//   TXT   l2.t01.m0001.spf-test.dns-lab.example.                  test=t01 mta=m0001
	//   TXT   l3.t01.m0001.spf-test.dns-lab.example.                  test=t01 mta=m0001
	//   A     foo.t01.m0001.spf-test.dns-lab.example.                 test=t01 mta=m0001
	//
	// => the MTA is SPF-validating (it fetched and evaluated the policy)
}
