package experiment

import (
	"fmt"
	"strings"

	"sendervalid/internal/dataset"
)

func mark(b bool) string {
	if b {
		return "Y"
	}
	return "x"
}

// RenderTable1 prints the top-10 TLD shares of a population (Table 1).
func RenderTable1(pops ...*dataset.Population) string {
	var sb strings.Builder
	sb.WriteString("Table 1: most prevalent TLDs per dataset\n")
	for _, p := range pops {
		fmt.Fprintf(&sb, "-- %s --\n", p.Name)
		shares := p.TLDShares()
		if len(shares) > 10 {
			shares = shares[:10]
		}
		for _, s := range shares {
			fmt.Fprintf(&sb, "  %-8s %5.1f%%\n", s.TLD, 100*s.Weight)
		}
		total := map[string]bool{}
		for _, d := range p.Domains {
			total[d.TLD] = true
		}
		fmt.Fprintf(&sb, "  total TLDs: %d\n", len(total))
	}
	return sb.String()
}

// RenderTable2 prints the dataset size summary (Table 2).
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: data sets used for experimentation\n")
	fmt.Fprintf(&sb, "  %-12s %10s %10s %10s\n", "data set", "domains", "MTAs v4", "MTAs v6")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-12s %10d %10d %10d\n", r.Name, r.Domains, r.MTAsV4, r.MTAsV6)
	}
	return sb.String()
}

// Table2Row summarizes one dataset for Table 2.
type Table2Row struct {
	Name    string
	Domains int
	MTAsV4  int
	MTAsV6  int
}

// Table2RowFor derives the row from a population.
func Table2RowFor(p *dataset.Population) Table2Row {
	v4, v6 := p.CountV4V6()
	return Table2Row{Name: p.Name, Domains: len(p.Domains), MTAsV4: v4, MTAsV6: v6}
}

// RenderTable3 prints the top-10 AS shares (Table 3).
func RenderTable3(pops ...*dataset.Population) string {
	var sb strings.Builder
	sb.WriteString("Table 3: most prevalent ASes by domain share\n")
	for _, p := range pops {
		fmt.Fprintf(&sb, "-- %s --\n", p.Name)
		shares := p.ASShares()
		if len(shares) > 10 {
			shares = shares[:10]
		}
		for _, s := range shares {
			fmt.Fprintf(&sb, "  AS%-6d %-16s %5.1f%%\n", s.ASN, s.Name, 100*s.DomainShare)
		}
		fmt.Fprintf(&sb, "  total ASes: %d\n", p.TotalASes)
	}
	return sb.String()
}

// comboOrder lists Table 4 rows in the paper's order.
var comboOrder = []struct {
	key   string
	label string
}{
	{"YYY", "SPF+DKIM+DMARC"},
	{"YYn", "SPF+DKIM"},
	{"nnn", "none"},
	{"Ynn", "SPF only"},
	{"nYn", "DKIM only"},
	{"nnY", "DMARC only"},
	{"YnY", "SPF+DMARC"},
	{"nYY", "DKIM+DMARC"},
}

// RenderTable4 prints the validation-combination breakdown (Table 4).
func RenderTable4(a *NotifyEmailAnalysis) string {
	var sb strings.Builder
	sb.WriteString("Table 4: SPF/DKIM/DMARC validation combinations (NotifyEmail domains)\n")
	fmt.Fprintf(&sb, "  %-16s %8s %7s\n", "combination", "domains", "share")
	for _, c := range comboOrder {
		share := SimpleShare{Tested: a.SPFDomains().Tested, Observed: a.Combos[c.key]}
		fmt.Fprintf(&sb, "  %-16s %8d %7s\n", c.label, share.Observed, share.Percent(1))
	}
	return sb.String()
}

// RenderTable5 prints the SPF-validating summary (Table 5).
func RenderTable5(rows []*ProbeAnalysis, notifyEmail *NotifyEmailAnalysis) string {
	var sb strings.Builder
	sb.WriteString("Table 5: SPF-validating domains and MTAs\n")
	fmt.Fprintf(&sb, "  %-22s %9s %9s %14s %14s\n",
		"experiment", "domains", "MTAs", "SPF domains", "SPF MTAs")
	row := func(label string, domains, mtas SimpleShare) {
		fmt.Fprintf(&sb, "  %-22s %9d %9d %8d (%4s) %8d (%4s)\n", label, domains.Tested, mtas.Tested,
			domains.Observed, domains.Percent(0), mtas.Observed, mtas.Percent(0))
	}
	if notifyEmail != nil {
		row("NotifyEmail", notifyEmail.SPFDomains(), notifyEmail.SPFMTAs)
	}
	for _, a := range rows {
		row(a.Name, a.SPFDomains, a.SPFMTAs)
		for _, dec := range a.Deciles {
			row(fmt.Sprintf("%s decile %d", a.Name, dec.Decile), dec.SPFDomains, dec.SPFMTAs)
		}
	}
	return sb.String()
}

// RenderTable6 prints the popular-provider breakdown (Table 6).
func RenderTable6(a *NotifyEmailAnalysis) string {
	var sb strings.Builder
	sb.WriteString("Table 6: validation by popular mail providers (observed / expected)\n")
	fmt.Fprintf(&sb, "  %-16s %5s %5s %6s\n", "domain", "SPF", "DKIM", "DMARC")
	for _, row := range a.Providers {
		fmt.Fprintf(&sb, "  %-16s %3s/%s %3s/%s %4s/%s\n",
			row.Domain,
			mark(row.SPF), mark(row.Expected.SPF),
			mark(row.DKIM), mark(row.Expected.DKIM),
			mark(row.DMARC), mark(row.Expected.DMARC))
	}
	return sb.String()
}

// RenderTable7 prints the Alexa breakdown (Table 7).
func RenderTable7(a *NotifyEmailAnalysis) string {
	al := a.Alexa
	var sb strings.Builder
	sb.WriteString("Table 7: validation by Alexa membership\n")
	fmt.Fprintf(&sb, "  %-18s %14s %14s %14s\n", "", "all", "top 1M", "top 1K")
	fmt.Fprintf(&sb, "  %-18s %14d %14d %14d\n", "domains", al[0].Domains, al[1].Domains, al[2].Domains)
	for row, label := range [...]string{rowSPF: "SPF-validating", rowDKIM: "DKIM-validating", rowDMARC: "DMARC-validating"} {
		fmt.Fprintf(&sb, "  %-18s", label)
		for _, t := range al {
			s := t.share(row)
			fmt.Fprintf(&sb, " %8d (%4s)", s.Observed, s.Percent(0))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// RenderFigure2 prints the timing histogram (Figure 2) as text bars.
func RenderFigure2(a *NotifyEmailAnalysis) string {
	b := Bucketize(a.TimingSamples)
	var sb strings.Builder
	sb.WriteString("Figure 2: distribution of tSPF − tEmail (paper-equivalent seconds)\n")
	rows := []struct {
		label string
		n     int
	}{
		{"<= -30", b.LE30Neg},
		{"(-30,-15]", b.Neg15},
		{"(-15,0]", b.Neg0},
		{"(0,15]", b.Pos15},
		{"(15,30]", b.Pos30},
		{"> 30", b.GE30},
	}
	for _, r := range rows {
		share := SimpleShare{Tested: b.Total, Observed: r.n}
		fmt.Fprintf(&sb, "  %-10s %6s %s\n", r.label, share.Percent(1), strings.Repeat("#", barLen(r.n, b.Total, 50)))
	}
	negative := SimpleShare{Tested: b.Total, Observed: b.LE30Neg + b.Neg15 + b.Neg0}
	fmt.Fprintf(&sb, "  negative (validated before delivery): %s of %d domains; %d sub-granularity samples filtered\n",
		negative.Percent(0), b.Total, a.TimingFiltered)
	return sb.String()
}

func barLen(n, total, width int) int {
	if total == 0 {
		return 0
	}
	return n * width / total
}

// RenderFigure5 prints the lookup-limit CDF (Figure 5).
func RenderFigure5(r LookupLimitResult, delaySeconds float64) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: CDF of DNS queries (and elapsed-time lower bound) on the limits policy\n")
	fmt.Fprintf(&sb, "  MTAs tested: %d\n", len(r.QueriesPerMTA))
	for _, p := range r.CDF() {
		fmt.Fprintf(&sb, "  %3.0f queries (>= %5.1fs) : %5.1f%% %s\n",
			p.X, p.X*delaySeconds, 100*p.Fraction,
			strings.Repeat("#", int(p.Fraction*40)))
	}
	fmt.Fprintf(&sb, "  halted before 10 queries: %s; ran all %d: %s\n",
		r.HaltedBeforeTen().Percent(0), r.MaxQueries, r.RanAll().Percent(0))
	return sb.String()
}

// RenderBehaviors prints the §7 behaviour summary.
func RenderBehaviors(sp SerialParallelResult, b *BehaviorResults) string {
	var sb strings.Builder
	sb.WriteString("Section 7: SPF validation behaviours\n")
	fmt.Fprintf(&sb, "  §7.1 serial DNS lookups:        %d/%d (%s)\n",
		sp.Serial.Observed, sp.Serial.Tested, sp.Serial.Percent(0))
	lines := []struct {
		label string
		s     SimpleShare
	}{
		{"§7.3 HELO policy checked", b.HELOChecked},
		{"§7.3 ...continued to MAIL", b.ContinuedToMail},
		{"§7.3 tolerated main-policy error", b.SyntaxMainTolerant},
		{"§7.3 tolerated child-policy error", b.SyntaxChildTolerant},
		{"§7.3 void queries past limit (>3)", b.VoidExceeded},
		{"§7.3 looked up all five voids", b.VoidAllFive},
		{"§7.3 forbidden MX->A fallback", b.MXFallback},
		{"§7.3 multiple records: none", b.MultipleNone},
		{"§7.3 multiple records: one", b.MultipleOne},
		{"§7.3 multiple records: both", b.MultipleBoth},
		{"§7.3 TCP retry after truncation", b.TCPRetried},
		{"§7.3 retrieved IPv6-only policy", b.IPv6Retrieved},
		{"§7.3 MX limit respected (<=10)", b.MXLimitCompliant},
		{"§7.3 queried all 20 MX hosts", b.MXAllTwenty},
	}
	for _, l := range lines {
		fmt.Fprintf(&sb, "  %-34s %5d/%-5d (%s)\n",
			l.label+":", l.s.Observed, l.s.Tested, l.s.Percent(0))
	}
	return sb.String()
}
