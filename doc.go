// Package sendervalid is a from-scratch, stdlib-only reproduction of
// the measurement apparatus of "Measuring Email Sender Validation in
// the Wild" (Deccio et al., CoNEXT 2021): SPF (RFC 7208), DKIM
// (RFC 6376), and DMARC (RFC 7489) implementations; a DNS wire-format
// stack with UDP/TCP clients and servers; the study's synthesizing
// authoritative DNS server with its 39-policy catalog and response
// shaping; an SMTP server/client pair including the pre-DATA-abort
// probing client; a simulated receiving-MTA fleet with behaviour
// profiles calibrated to the paper's observations; and experiment
// drivers plus analyses regenerating every table and figure of the
// paper's evaluation.
//
// The implementation lives under internal/; see the README for the
// package map, DESIGN.md for the system inventory, and EXPERIMENTS.md
// for paper-vs-measured results. The study's whole printed report is
// a golden file, internal/experiment/testdata/report-4000.golden, which
// go test ./... holds byte for byte.
package sendervalid
