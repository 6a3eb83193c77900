package bench

import (
	"fmt"

	"paxoscp/internal/core"
)

// Ablation runs the design-choice ablations DESIGN.md §7 calls out, all on
// the Figure 6 midpoint workload (VVV, 100 attributes):
//
//  1. leader fast path on/off,
//  2. Paxos-CP with combination disabled,
//  3. Paxos-CP with promotion disabled (combination only),
//  4. exhaustive vs greedy combination.
func Ablation(o Options) ([]Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Ablations (VVV, 100 attributes): contribution of each mechanism",
		Columns: []string{"variant", "commits", "by-round", "combined", "check"},
	}
	variants := []struct {
		name  string
		proto core.Protocol
		edit  func(*core.Config)
	}{
		{"paxos", core.Basic, nil},
		{"paxos no-fastpath", core.Basic, func(c *core.Config) { c.DisableFastPath = true }},
		{"paxos-cp", core.CP, nil},
		{"paxos-cp no-fastpath", core.CP, func(c *core.Config) { c.DisableFastPath = true }},
		{"paxos-cp no-combination", core.CP, func(c *core.Config) { c.DisableCombination = true }},
		{"paxos-cp no-promotion", core.CP, func(c *core.Config) { c.DisablePromotion = true }},
		{"paxos-cp greedy-combine", core.CP, func(c *core.Config) { c.CombineLimit = 1 }},
	}
	for _, v := range variants {
		res, err := run(o, runSpec{
			name:       "ablation " + v.name,
			topology:   "VVV",
			protocol:   v.proto,
			cfgEdit:    v.edit,
			attributes: 100,
			opsPerTxn:  10,
		})
		if err != nil {
			return nil, err
		}
		sum := res.summary
		t.AddRow(v.name, fmt.Sprint(sum.Commits), roundCommits(sum),
			fmt.Sprint(sum.Combined), violationsCell(res.violations))
	}
	return []Table{t}, nil
}

// PromotionCap sweeps the promotion-attempt cap ("If increased latency is a
// concern, the number of promotion attempts can be capped", §6).
func PromotionCap(o Options) ([]Table, error) {
	o = o.withDefaults()
	t := Table{
		Title:   "Promotion cap sweep (VVV, 100 attributes, Paxos-CP)",
		Columns: []string{"cap", "commits", "by-round", "mean-latency-ms", "check"},
	}
	caps := []int{1, 2, 4, 0} // 0 = unlimited (paper default)
	for _, cap := range caps {
		capLabel := fmt.Sprint(cap)
		if cap == 0 {
			capLabel = "unlimited"
		}
		capVal := cap
		res, err := run(o, runSpec{
			name:       "promo-cap " + capLabel,
			topology:   "VVV",
			protocol:   core.CP,
			cfgEdit:    func(c *core.Config) { c.MaxPromotions = capVal },
			attributes: 100,
			opsPerTxn:  10,
		})
		if err != nil {
			return nil, err
		}
		sum := res.summary
		t.AddRow(capLabel, fmt.Sprint(sum.Commits), roundCommits(sum),
			fmtMS(sum.AllCommit.Mean, o.Scale), violationsCell(res.violations))
	}
	return []Table{t}, nil
}

// LeaderComparison compares the two Paxos commit protocols against the
// leader-based design the paper sketches in §7 (long-term master as
// transaction manager and sequencer — implemented as core.Master). The
// paper predicts the trade: "fewer rounds of messaging per transaction, but
// a greater amount of work would fall on a single site". We run the Figure
// 6 midpoint workload with clients spread across datacenters so remote
// clients pay the round trip to the master.
func LeaderComparison(o Options) ([]Table, error) {
	o = o.withDefaults()
	t := Table{
		Title: "Leader-based design vs Paxos/Paxos-CP (§7 discussion; VOC, 100 attributes)",
		Note:  "clients spread over all three datacenters; master at V",
		Columns: []string{"protocol", "commits", "aborts", "mean-latency-ms",
			"paxos-msgs/txn", "check"},
	}
	for _, proto := range []core.Protocol{core.Basic, core.CP, core.Master} {
		res, err := run(o, runSpec{
			name:       "leader-cmp " + proto.String(),
			topology:   "VOC",
			protocol:   proto,
			cfgEdit:    func(c *core.Config) { c.MasterDC = "V" },
			attributes: 100,
			opsPerTxn:  10,
			threadDCs:  []string{"V", "O", "C"},
		})
		if err != nil {
			return nil, err
		}
		sum := res.summary
		t.AddRow(proto.String(), fmt.Sprint(sum.Commits),
			fmt.Sprint(sum.Aborts+sum.Failures),
			fmtMS(sum.AllCommit.Mean, o.Scale),
			fmt.Sprintf("%.1f", res.paxosPerTx), violationsCell(res.violations))
	}
	return []Table{t}, nil
}

// MessageComplexity verifies the §5 claim that Paxos-CP requires "the same
// per instance message complexity as the basic Paxos protocol" by counting
// Paxos-protocol messages per transaction under identical workloads.
func MessageComplexity(o Options) ([]Table, error) {
	o = o.withDefaults()
	t := Table{
		Title: "Message complexity (VVV, 100 attributes): Paxos messages per instance",
		Note: "§5 claims per-INSTANCE parity; a promoted transaction runs one instance " +
			"per promotion round, so per-transaction counts differ",
		Columns: []string{"protocol", "msgs/instance", "instances/txn", "msgs/txn",
			"commits", "check"},
	}
	for _, proto := range protocols {
		res, err := run(o, messageSpec(proto))
		if err != nil {
			return nil, err
		}
		sum := res.summary
		// Each transaction participates in Round+1 Paxos instances (one per
		// promotion round); basic Paxos is always exactly one.
		instances := 0
		for _, s := range res.samples {
			instances += s.Round + 1
		}
		perInstance, perTxn := "-", "-"
		if instances > 0 {
			perInstance = fmt.Sprintf("%.1f", float64(res.msgs.PaxosSent())/float64(instances))
		}
		if sum.Total > 0 {
			perTxn = fmt.Sprintf("%.1f", res.paxosPerTx)
		}
		t.AddRow(proto.String(), perInstance,
			fmt.Sprintf("%.2f", float64(instances)/float64(sum.Total)),
			perTxn, fmt.Sprint(sum.Commits), violationsCell(res.violations))
	}
	return []Table{t}, nil
}

// messageSpec is the message-complexity figure's run of proto.
func messageSpec(proto core.Protocol) runSpec {
	return runSpec{
		name:       fmt.Sprintf("msgs %s", proto),
		topology:   "VVV",
		protocol:   proto,
		attributes: 100,
		opsPerTxn:  10,
	}
}
