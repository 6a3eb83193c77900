package core

import (
	"context"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/wal"
)

// runClaimDuel reproduces PR 4's known annoyance: a sustained asymmetric
// partition (A and B cannot see each other, both see C) with both sides
// repeatedly trying to hold mastership. Without a standoff rule each side
// re-claims every time its view of the other's lease goes silent, so
// mastership ping-pongs for the whole partition. The duel runs for the given
// duration, then heals and counts takeovers per side from the converged log —
// the direct measure of how often mastership actually changed hands.
func runClaimDuel(t *testing.T, lease, duration time.Duration, backoffOff bool) map[string]int {
	t.Helper()
	opts := []ServiceOption{WithServiceTimeout(40 * time.Millisecond), WithLeaseDuration(lease)}
	if backoffOff {
		opts = append(opts, WithClaimBackoffDisabled())
	}
	services, sim := newServiceRing(t, 5, []string{"A", "B", "C"}, opts...)
	ctx := context.Background()

	// A seeds mastership at epoch 1, then the asymmetric cut begins.
	if _, err := services["A"].ClaimMastership(ctx, "g"); err != nil {
		t.Fatalf("seed claim: %v", err)
	}
	sim.Partition("A", "B")

	// Both sides carry submit traffic for the whole partition, each pinned
	// to its own side as master. This runs the production re-claim loop:
	// a side's fenced entries reveal its deposition, the pipeline's
	// ensureMastership claims again as soon as its view of the rival's lease
	// goes silent — the exact ping-pong mechanism, driven end to end.
	deadline := time.Now().Add(duration)
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var wg sync.WaitGroup
	for i, dc := range []string{"A", "B"} {
		ep := sim.EndpointAsync(dc, services[dc].AsyncHandler())
		cl := NewClient(10+i, dc, ep, Config{
			Protocol: Master, MasterDC: dc, Seed: int64(i + 1),
			Timeout: 40 * time.Millisecond,
		})
		wg.Add(1)
		go func(dc string, cl *Client) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				tx, err := cl.Begin(dctx, "g")
				if err != nil {
					continue
				}
				tx.Write(dc+"-k", dc)
				tx.Commit(dctx) // all verdicts fine; the log is the measure
				sleepCtx(dctx, 5*time.Millisecond)
			}
		}(dc, cl)
	}
	wg.Wait()

	// Heal, converge everyone, and count claims per side from C's log (C saw
	// every decided entry; Recover fills any stragglers).
	sim.Unpartition("A", "B")
	for _, dc := range []string{"A", "B", "C"} {
		if err := services[dc].Recover(ctx, "g"); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
	}
	// Count takeovers from the union of every replica's log: walked in
	// position order, a claim entry takes mastership when its epoch is above
	// the prevailing one (the fencing rule). A claim entry that does not is
	// no change of hands: a claim fenced by a higher epoch below it, or the
	// same takeover proposed again after its first round ran out of budget
	// before the claimant had absorbed it. The union may have trailing holes
	// — ambiguous positions the dueling masters abandoned above every applied
	// watermark — which recovery only no-op fills below the applied horizons;
	// claims are decided entries, so the count is exact regardless.
	merged := map[int64]wal.Entry{}
	for _, dc := range []string{"A", "B", "C"} {
		for pos, e := range services[dc].LogSnapshot("g") {
			merged[pos] = e
		}
	}
	takeovers, entries := map[string]int{}, 0
	var epoch int64
	for _, pos := range slices.Sorted(maps.Keys(merged)) {
		if e := merged[pos]; e.IsClaim() {
			entries++
			if e.Epoch > epoch {
				epoch = e.Epoch
				takeovers[e.Master]++
			}
		}
	}
	t.Logf("duel (backoffOff=%v): %d log entries, %d claim entries, takeovers per side: %v",
		backoffOff, len(merged), entries, takeovers)
	return takeovers
}

// TestClaimBackoffCalmsAsymmetricPartitionPingPong pins the per-epoch claim
// backoff (DESIGN.md §11): under the same sustained asymmetric partition,
// the deposed-side standoff must cut the number of mastership changes to a
// small, duration-logarithmic count. The pre-backoff behavior swaps
// mastership about every three lease periods: the deposed side waits out the
// winner's lease from when it learned of the claim, and then its own claim
// pays a service timeout per attempt to the peer it cannot reach while it
// races the live master for a position. Safety is fencing's job either way —
// this is purely the liveness/disruption fix — but each takeover costs a
// gap, so the count is what users feel.
func TestClaimBackoffCalmsAsymmetricPartitionPingPong(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second duel skipped in short mode")
	}
	const (
		lease    = 100 * time.Millisecond
		duration = 24 * lease
	)
	with := runClaimDuel(t, lease, duration, false)
	without := runClaimDuel(t, lease, duration, true)

	total := func(m map[string]int) int {
		n := 0
		for _, c := range m {
			n += c
		}
		return n
	}
	// The duel must actually have happened in both runs: at least one
	// takeover beyond A's seed claim.
	if without["B"] == 0 || with["B"] == 0 {
		t.Fatalf("no takeover happened: with=%v without=%v", with, without)
	}
	// Regression half: without backoff the partition ping-pongs — strictly
	// more takeovers than with it.
	if total(without) <= total(with) {
		t.Errorf("backoff had no effect: %d takeovers with, %d without", total(with), total(without))
	}
	// Absolute half: with backoff, each side's takeovers stay in the
	// logarithmic regime (streak doubling: ~1+log2(duration/lease) per side
	// at worst, far below the ping-pong's).
	for dc, n := range with {
		if n > 6 {
			t.Errorf("side %s took over %d times with backoff on (want <= 6): %v", dc, n, with)
		}
	}
}
