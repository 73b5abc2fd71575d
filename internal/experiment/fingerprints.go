package experiment

import (
	"fmt"
	"strings"

	"sendervalid/internal/dnsserver"
	"sendervalid/internal/fingerprint"
)

// Fingerprints reads per-MTA behaviour vectors off the observations
// and clusters them into behavioural families — the paper's proposed
// §8 follow-up ("classify and even fingerprint an SPF validator
// implementation").
func Fingerprints(obs fingerprint.Observations) ([]fingerprint.Cluster, map[string]*fingerprint.Vector) {
	vectors := obs.Vectors()
	return fingerprint.Clusters(vectors), vectors
}

// AnalyzeFingerprintEntries is Fingerprints over a log slice.
func AnalyzeFingerprintEntries(log []dnsserver.LogEntry) ([]fingerprint.Cluster, map[string]*fingerprint.Vector) {
	return Fingerprints(fingerprint.Observe(log))
}

// RenderFingerprints prints the behaviour-family summary with
// reference-implementation classification of the biggest families.
func RenderFingerprints(clusters []fingerprint.Cluster, vectors map[string]*fingerprint.Vector, top int) string {
	var sb strings.Builder
	sb.WriteString("Section 8 (future work): validator fingerprints\n")
	fmt.Fprintf(&sb, "  trait order: %s\n", strings.Join(fingerprint.TraitNames, " "))
	total := 0
	for _, c := range clusters {
		total += len(c.MTAs)
	}
	fmt.Fprintf(&sb, "  %d MTAs fall into %d behavioural families\n", total, len(clusters))
	refs := fingerprint.References()
	shown := 0
	for _, c := range clusters {
		if shown >= top {
			break
		}
		shown++
		label := "unclassified"
		if v := vectors[c.MTAs[0]]; v != nil {
			if matches := fingerprint.Classify(v, refs); len(matches) > 0 {
				label = fmt.Sprintf("nearest %s (%.0f%% agree)",
					matches[0].Name, 100*matches[0].Score())
			}
		}
		fmt.Fprintf(&sb, "  [%s] %4d MTAs  %s\n", c.Signature, len(c.MTAs), label)
	}
	if len(clusters) > shown {
		fmt.Fprintf(&sb, "  ... and %d smaller families\n", len(clusters)-shown)
	}
	return sb.String()
}
