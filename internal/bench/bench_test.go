package bench

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"paxoscp/internal/core"
)

// quickOpts runs experiments small and fast for CI.
func quickOpts() Options {
	return Options{Scale: 0.002, Txns: 24, Threads: 4, Seed: 7}
}

func checkTables(t *testing.T, tables []Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("table %q has no rows", tb.Title)
		}
		s := tb.String()
		if strings.Contains(s, "VIOLATIONS") {
			t.Fatalf("serializability violations in %q:\n%s", tb.Title, s)
		}
	}
}

func TestFig4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Fig4(quickOpts())
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 8 { // 4 replica counts x 2 protocols
		t.Fatalf("fig4 commits rows = %d", len(tables[0].Rows))
	}
}

func TestFig5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Fig5(quickOpts())
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 12 { // 6 clusters x 2 protocols
		t.Fatalf("fig5 rows = %d", len(tables[0].Rows))
	}
}

func TestFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Fig6(quickOpts())
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 10 { // 5 contention levels x 2 protocols
		t.Fatalf("fig6 rows = %d", len(tables[0].Rows))
	}
}

func TestFig7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Fig7(quickOpts())
	checkTables(t, tables, err)
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := quickOpts()
	o.Txns = 8 // per instance
	tables, err := Fig8(o)
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 6 { // 3 DCs x 2 protocols
		t.Fatalf("fig8 rows = %d", len(tables[0].Rows))
	}
}

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Ablation(quickOpts())
	checkTables(t, tables, err)
}

func TestPromotionCapQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := PromotionCap(quickOpts())
	checkTables(t, tables, err)
}

func TestMessageComplexityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := MessageComplexity(quickOpts())
	checkTables(t, tables, err)
}

func TestAvailabilityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Availability(quickOpts())
	checkTables(t, tables, err)
	if len(tables) != 2 {
		t.Fatalf("availability tables = %d", len(tables))
	}
}

func TestLeaderComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := LeaderComparison(quickOpts())
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 3 {
		t.Fatalf("leader comparison rows = %d", len(tables[0].Rows))
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Note: "n", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	s := tb.String()
	for _, want := range []string{"T", "(n)", "a", "bb", "1", "2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

// TestCPOutperformsBasicUnderContention is the paper's headline result in
// miniature: with concurrent threads at the same read position, Paxos-CP
// must commit strictly more transactions than basic Paxos.
func TestCPOutperformsBasicUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Scale: 0.002, Txns: 60, Threads: 4, Seed: 3}
	results := map[string]int{}
	for _, proto := range protocols {
		res, err := run(o, runSpec{
			name:       "headline " + proto.String(),
			topology:   "VVV",
			protocol:   proto,
			attributes: 100,
			opsPerTxn:  10,
			interval:   paperInterval / 4, // extra load to force contention
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.violations) != 0 {
			t.Fatalf("%s violations: %v", proto, res.violations)
		}
		results[proto.String()] = res.summary.Commits
	}
	if results["paxos-cp"] <= results["paxos"] {
		t.Fatalf("Paxos-CP (%d commits) did not beat basic Paxos (%d commits)",
			results["paxos-cp"], results["paxos"])
	}
}

// TestScansQuick smoke-runs the workload-E scan figure: three scan-length
// rows, each with a clean serializability check (scans do not join the OCC
// read set, so the battery must stay green with scans interleaved).
func TestScansQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Scans(quickOpts())
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 3 {
		t.Fatalf("scans rows = %d", len(tables[0].Rows))
	}
}

// TestMessageParityPerInstance is §5's cost claim as a test: Paxos-CP has
// "the same per instance message complexity as the basic Paxos protocol".
// One workload thread, so an instance costs what the protocol sends and not
// what contention makes it retry: the two protocols' msgs/instance are
// within 2 % of each other. (Under contending threads the two retry
// different numbers of ballots per instance and the means drift a few
// percent apart, either way, from run to run.)
func TestMessageParityPerInstance(t *testing.T) {
	o := quickOpts()
	o.Threads = 1
	tables, err := MessageComplexity(o)
	checkTables(t, tables, err)
	perInstance := make(map[string]float64)
	for _, row := range tables[0].Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("msgs/instance of %s = %q", row[0], row[1])
		}
		perInstance[row[0]] = v
	}
	basic, cp := perInstance[core.Basic.String()], perInstance[core.CP.String()]
	if basic == 0 || cp == 0 {
		t.Fatalf("rows = %v, want one for Basic and one for CP", tables[0].Rows)
	}
	if diff := math.Abs(basic-cp) / basic; diff > 0.02 {
		t.Errorf("msgs/instance: Basic %.1f, CP %.1f, %.1f %% apart, want within 2 %%\n%s", basic, cp, 100*diff, tables[0])
	}
}
