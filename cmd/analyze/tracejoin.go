package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/dnsserver"
	"sendervalid/internal/jsonwire"
	"sendervalid/internal/trace"
	"sendervalid/internal/wal"
)

// loadSpans reads a span stream written with -trace-file (WAL-framed
// JSONL, possibly rotated) and returns the decoded records. Undecodable
// lines are counted, not fatal: a trace file that lost its tail at a
// crash still yields every intact span, and st says how much was lost.
func loadSpans(path string) (recs []trace.Record, bad int, st wal.RecoverStats, err error) {
	f, err := wal.OpenStream(path)
	if err != nil {
		return nil, 0, st, err
	}
	defer f.Close()
	lr := jsonwire.NewLineReader(f)
	for lr.Next() {
		line := lr.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := trace.ParseRecord(line)
		if err != nil {
			bad++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, bad, f.Stats(), lr.Err()
}

// spanNode is one span in a reassembled trace tree.
type spanNode struct {
	rec  trace.Record
	kids []*spanNode
	// joined are the query-log entries attributed to this span (only
	// resolver wire spans ever match).
	joined []dnsserver.LogEntry
}

// buildForest reassembles span records into per-trace trees. Orphans
// (children whose parent never made it into the file — e.g. an
// unsampled parent of a slow-promoted child) become roots of their
// own. Roots are returned in start-time order.
func buildForest(recs []trace.Record) []*spanNode {
	nodes := make(map[string]*spanNode, len(recs))
	for i := range recs {
		nodes[recs[i].Trace+"/"+recs[i].Span] = &spanNode{rec: recs[i]}
	}
	var roots []*spanNode
	for _, n := range nodes {
		if n.rec.Parent != "" {
			if p, ok := nodes[n.rec.Trace+"/"+n.rec.Parent]; ok {
				p.kids = append(p.kids, n)
				continue
			}
		}
		roots = append(roots, n)
	}
	sortNodes(roots)
	for _, n := range nodes {
		sortNodes(n.kids)
	}
	return roots
}

func sortNodes(ns []*spanNode) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].rec.Start.Before(ns[j].rec.Start) })
}

// joinQueries attributes query-log entries to the wire spans that
// elicited them: an entry joins a "resolver.wire" or "resolver.exchange"
// span when the names and types match and the entry's arrival falls
// inside the span's lifetime (with slack for clock granularity). Each
// entry joins at most one span. It returns how many entries joined.
func joinQueries(roots []*spanNode, entries []dnsserver.LogEntry) int {
	const slack = 25 * time.Millisecond
	type key struct {
		name string
		typ  string
	}
	byKey := make(map[key][]int)
	for i, e := range entries {
		k := key{dns.CanonicalName(e.Name), e.Type.String()}
		byKey[k] = append(byKey[k], i)
	}
	taken := make([]bool, len(entries))
	joined := 0
	var walk func(*spanNode)
	walk = func(n *spanNode) {
		if fam := n.rec.Family(); fam == "resolver" {
			name := n.rec.Attr("dns.name")
			typ := n.rec.Attr("dns.type")
			if name != "" && typ != "" {
				start := n.rec.Start.Add(-slack)
				end := n.rec.Start.Add(time.Duration(n.rec.DurUS) * time.Microsecond).Add(slack)
				for _, i := range byKey[key{dns.CanonicalName(name), typ}] {
					if taken[i] {
						continue
					}
					if t := entries[i].Time; !t.Before(start) && !t.After(end) {
						taken[i] = true
						joined++
						n.joined = append(n.joined, entries[i])
					}
				}
			}
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return joined
}

// lookupKey identifies one (MTA, test) pair in the aggregate view.
type lookupKey struct {
	MTA  string
	Test string
}

// aggregateLookups tallies joined wire lookups per (MTA, test) pair.
func aggregateLookups(roots []*spanNode) map[lookupKey]int {
	agg := make(map[lookupKey]int)
	var walk func(*spanNode)
	walk = func(n *spanNode) {
		for _, e := range n.joined {
			agg[lookupKey{MTA: e.MTAID, Test: e.TestID}]++
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return agg
}

// renderTraceTrees writes the reassembled trace trees (capped at max
// roots) followed by the per-(MTA, test) lookup totals. entries may be
// the full attributed query log; only time-and-name matches join.
func renderTraceTrees(w io.Writer, recs []trace.Record, entries []dnsserver.LogEntry, max int) {
	roots := buildForest(recs)
	joined := joinQueries(roots, entries)
	fmt.Fprintf(w, "traces: %d spans in %d trees, %d of %d log entries joined to wire spans\n",
		len(recs), len(roots), joined, len(entries))
	shown := roots
	if max > 0 && len(shown) > max {
		shown = shown[:max]
		fmt.Fprintf(w, "(showing first %d trees)\n", max)
	}
	for _, r := range shown {
		writeNode(w, r, 0)
	}
	agg := aggregateLookups(roots)
	if len(agg) == 0 {
		return
	}
	keys := make([]lookupKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].MTA != keys[j].MTA {
			return keys[i].MTA < keys[j].MTA
		}
		return keys[i].Test < keys[j].Test
	})
	fmt.Fprintf(w, "lookups per (MTA, test):\n")
	for _, k := range keys {
		fmt.Fprintf(w, "  mta=%-10s test=%-6s lookups=%d\n", k.MTA, k.Test, agg[k])
	}
}

func writeNode(w io.Writer, n *spanNode, depth int) {
	indent := strings.Repeat("  ", depth)
	ms := float64(n.rec.DurUS) / 1e3
	fmt.Fprintf(w, "%s%-24s %9.3fms", indent, n.rec.Name, ms)
	if depth == 0 {
		fmt.Fprintf(w, " trace=%s", n.rec.Trace)
	}
	for _, a := range n.rec.Attrs {
		fmt.Fprintf(w, " %s=%s", a.K, a.V)
	}
	if n.rec.Err != "" {
		fmt.Fprintf(w, " err=%q", n.rec.Err)
	}
	fmt.Fprintln(w)
	for _, e := range n.joined {
		fmt.Fprintf(w, "%s  -> served %s mta=%s test=%s over %s at %s\n",
			indent, e.Type, e.MTAID, e.TestID, e.Transport, e.Time.Format("15:04:05.000"))
	}
	for _, k := range n.kids {
		writeNode(w, k, depth+1)
	}
}
