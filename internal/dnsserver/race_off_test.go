//go:build !race

package dnsserver

const raceEnabled = false
