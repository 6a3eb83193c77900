package cluster

import (
	"context"
	"fmt"

	"paxoscp/internal/core"
	"paxoscp/internal/placement"
)

// Online cluster rescaling (DESIGN.md §15): Grow adds transaction groups to
// a running deployment by driving the live-migration protocol — per growth
// step, every pre-existing group hands its moving range to the new group via
// online backfill and an epoch-fenced cutover, with client traffic still
// flowing. Clients built by NewKV route through clusterRouter, so they adopt
// each step's new placement the moment the cluster swaps it in; clients that
// race the swap are redirected by the protocol itself (VerdictMoved).

// clusterRouter adapts the cluster's swappable placement to core.Router: a
// routing decision always consults the placement current at that instant.
type clusterRouter struct{ c *Cluster }

func (r clusterRouter) GroupFor(key string) string { return r.c.Placement().GroupFor(key) }
func (r clusterRouter) Groups() []string           { return r.c.Placement().Groups() }

// Grow rescales the cluster to n transaction groups, online. The growth
// decomposes into single-group steps (placement.Plan); for each step the
// cluster pre-opens the new group's log on every live replica, runs the
// migration coordinator over every (from → new) range — snapshot backfill,
// delta rounds, then the four fenced handoff entries — and only then swaps
// the cluster placement so fresh routing decisions see the new group.
//
// Grow blocks until every step completes or ctx expires. It tolerates the
// faults the coordinator tolerates: replica crashes, partitions, and
// failovers stall progress until connectivity returns, they do not abort the
// grow. A grow interrupted by ctx leaves the cluster consistent — completed
// steps are fully cut over and routable, the interrupted step's ranges are
// each either fully handed off or still owned by their source group (the
// per-range protocol has no partially-owned state).
func (c *Cluster) Grow(ctx context.Context, n int) error {
	cur := c.Placement()
	have := len(cur.Groups())
	if n <= have {
		return fmt.Errorf("cluster: grow to %d groups: already have %d", n, have)
	}
	extras := placement.GroupNames(n)[have:]
	dcs := c.DCs()
	for _, step := range cur.Plan(extras...) {
		// Pre-open the new group's log everywhere so the coordinator's first
		// submit does not race lazy opens on three replicas at once. Crashed
		// replicas catch up lazily after Restart (Service.log auto-opens).
		c.svcMu.RLock()
		for _, s := range c.services {
			if s != nil {
				s.EnsureGroups(step.Added)
			}
		}
		c.svcMu.RUnlock()

		step := step
		mig := &core.Migrator{
			// Seed master lookups from the post-step spread, so the new
			// group's designated master matches what MasterOf will report
			// once the placement swaps in. A stale seed only costs redirect
			// hops: the coordinator follows not-master hints.
			Client: c.NewClient(dcs[0], core.Config{Protocol: core.Master, MasterFor: func(group string) string {
				if i := step.To.IndexOf(group); i >= 0 {
					return dcs[i%len(dcs)]
				}
				return dcs[0]
			}}),
			OnPhase: c.cfg.OnMigrationPhase,
		}
		if err := mig.Step(ctx, step); err != nil {
			return fmt.Errorf("cluster: grow step %s: %w", step.Added, err)
		}
		c.placeMu.Lock()
		c.place = step.To
		c.placeMu.Unlock()
	}
	return nil
}
