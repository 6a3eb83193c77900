package bench

import (
	"math"
	"strings"
	"sync"
	"testing"

	"paxoscp/internal/cluster"
	"paxoscp/internal/core"
	"paxoscp/internal/network"
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
// An instance costs what its ballots send, and how many ballots it runs is
// not the protocol's doing: the quiescing recovery's probes duel for one
// more prepare now and then. So the claim is compared per ballot, ballot 0
// of the fast path counting as one: over all the ballots of a run, Basic
// and CP send the same Paxos messages per ballot, within 2 %. A kind of
// ballot, named by the phases it ran (a fast ballot that decided ran accept
// and apply), that one protocol ran and the other never did fails the test
// too: it is a cost only one protocol pays. One workload thread, so no
// contention adds kinds of its own.
func TestMessageParityPerInstance(t *testing.T) {
	o := quickOpts()
	o.Threads = 1
	costs := make(map[core.Protocol]map[string]kindCost)
	for _, proto := range protocols {
		var ballots *ballotTally
		rs := messageSpec(proto)
		rs.observe = func(c *cluster.Cluster) { ballots = tallyBallots(c) }
		res, err := run(o, rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.violations) != 0 {
			t.Fatalf("%v: %d serializability violations", proto, len(res.violations))
		}
		costs[proto] = ballots.byKind()
		t.Logf("%v: %d Paxos messages, %d transactions; by kind of ballot: %v",
			proto, res.msgs.PaxosSent(), res.summary.Total, costs[proto])
	}
	basic, cp := costs[core.Basic], costs[core.CP]
	for _, pair := range [][2]map[string]kindCost{{basic, cp}, {cp, basic}} {
		for kind := range pair[0] {
			if _, ok := pair[1][kind]; !ok {
				t.Errorf("%s ballots ran under one protocol only: Basic %v, CP %v", kind, basic, cp)
			}
		}
	}
	bm, cm := perBallot(basic), perBallot(cp)
	if bm == 0 || cm == 0 {
		t.Fatalf("a protocol ran no ballot: Basic %v, CP %v", basic, cp)
	}
	if diff := math.Abs(bm-cm) / bm; diff > 0.02 {
		t.Errorf("msgs/ballot: Basic %.2f, CP %.2f, %.1f %% apart, want within 2 %%", bm, cm, 100*diff)
	}
}

// perBallot is the Paxos messages per ballot over every kind.
func perBallot(kinds map[string]kindCost) float64 {
	var all kindCost
	for _, k := range kinds {
		all.ballots += k.ballots
		all.msgs += k.msgs
	}
	if all.ballots == 0 {
		return 0
	}
	return float64(all.msgs) / float64(all.ballots)
}

// ballotTally attributes a run's Paxos messages to the ballots they belong
// to. A prepare or an accept names its ballot by (group, position, ballot),
// and an apply by the ballot its value was chosen at, so ballot 0 of the
// fast path counts once however many acceptors it reaches; each request
// counts with its reply.
type ballotTally struct {
	mu      sync.Mutex
	ballots map[ballotKey]*ballotCost
}

type ballotKey struct {
	group       string
	pos, ballot int64
}

type ballotCost struct {
	phases map[network.Kind]bool // the requests it sent: prepare, accept, apply
	msgs   int
}

// kindCost is what the ballots of one kind cost together.
type kindCost struct{ ballots, msgs int }

// tallyBallots puts a new ballotTally in front of every datacenter's handler
// and returns it.
func tallyBallots(c *cluster.Cluster) *ballotTally {
	b := &ballotTally{ballots: make(map[ballotKey]*ballotCost)}
	for _, dc := range c.DCs() {
		h := c.Service(dc).AsyncHandler()
		c.Sim().EndpointAsync(dc, func(from string, req network.Message, reply func(network.Message)) {
			switch req.Kind {
			case network.KindPrepare, network.KindAccept, network.KindApply:
				b.mu.Lock()
				k := ballotKey{req.Group, req.Pos, req.Ballot}
				if b.ballots[k] == nil {
					b.ballots[k] = &ballotCost{phases: make(map[network.Kind]bool)}
				}
				b.ballots[k].phases[req.Kind] = true
				b.ballots[k].msgs += 2
				b.mu.Unlock()
			}
			h(from, req, reply)
		})
	}
	return b
}

// byKind sums the ballots by kind: the phases each ran, such as
// "accept+apply" for a fast ballot that decided.
func (b *ballotTally) byKind() map[string]kindCost {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]kindCost)
	for _, cost := range b.ballots {
		var phases []string
		for _, k := range []network.Kind{network.KindPrepare, network.KindAccept, network.KindApply} {
			if cost.phases[k] {
				phases = append(phases, string(k))
			}
		}
		kind := strings.Join(phases, "+")
		out[kind] = kindCost{out[kind].ballots + 1, out[kind].msgs + cost.msgs}
	}
	return out
}
