package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"paxoscp/internal/network"
)

// Protocol selects the commit protocol a Client runs.
type Protocol int

const (
	// Basic is the basic Paxos commit protocol (§4.1).
	Basic Protocol = iota
	// CP is Paxos with Combination and Promotion (§5).
	CP
)

func (p Protocol) String() string {
	switch p {
	case Basic:
		return "paxos"
	case CP:
		return "paxos-cp"
	case Master:
		return "master"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config tunes a Client's commit protocol. The zero value gives the paper's
// defaults (basic Paxos, 2 s timeout via network.DefaultTimeout, unlimited
// promotions, leader fast path on).
type Config struct {
	// Protocol selects Basic or CP.
	Protocol Protocol
	// Timeout bounds each message round (paper: 2 s). Zero uses
	// network.DefaultTimeout. Experiments scale it with network latency.
	Timeout time.Duration
	// MaxPromotions caps promotion attempts in CP. Zero means unlimited,
	// the paper's evaluation setting ("Transactions were allowed to try
	// for promotion an unlimited number of times"). Use DisablePromotion
	// for the combination-only ablation.
	MaxPromotions int
	// DisablePromotion turns Paxos-CP's promotion off (ablation 3 in
	// DESIGN.md): losing transactions abort as in basic Paxos.
	DisablePromotion bool
	// MaxRetries bounds prepare/accept retry rounds within one Paxos
	// instance before the commit attempt reports failure. Zero means the
	// default (32).
	MaxRetries int
	// BackoffBase scales the randomized backoff between retry rounds
	// ("sleep for random time period", Algorithm 2). Zero means 2 ms.
	BackoffBase time.Duration
	// DisableFastPath turns the §4.1 per-position leader optimization off
	// (ablation 1 in DESIGN.md).
	DisableFastPath bool
	// DisableCombination turns Paxos-CP's combination off (ablation 2).
	DisableCombination bool
	// CombineLimit caps the number of candidate transactions considered by
	// the exhaustive combination search before switching to the greedy
	// pass (§5 suggests greedy for large lists). Zero means 4.
	CombineLimit int
	// Seed seeds the client's backoff RNG. Zero uses a time-based seed.
	Seed int64
	// MasterDC names the long-term master datacenter for the Master
	// protocol (§7 design). Empty defaults to the topology's first
	// datacenter. Ignored by Basic and CP.
	MasterDC string
	// MasterFor, when set, overrides MasterDC per transaction group: a
	// sharded deployment spreads group masterships across datacenters
	// (DESIGN.md §12), so one client committing to many groups needs a
	// per-group route. Returning "" falls back to MasterDC. Ignored by
	// Basic and CP.
	MasterFor func(group string) string
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return network.DefaultTimeout
}

func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 32
}

func (c Config) backoffBase() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 2 * time.Millisecond
}

func (c Config) combineLimit() int {
	if c.CombineLimit > 0 {
		return c.CombineLimit
	}
	return 4
}

// backoff is the one pause of this package: between a proposer's refused
// rounds ("sleep for random time period", Algorithm 2), so competing
// proposers separate, and between the retries built on them. Each client and
// each service has its own, drawing from its own seeded source; safe for
// concurrent use.
type backoff struct {
	base time.Duration
	mu   sync.Mutex
	rng  *rand.Rand
}

// newBackoff returns a backoff of the given base; seed 0 means a time-based
// seed.
func newBackoff(base time.Duration, seed int64) *backoff {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &backoff{base: base, rng: rand.New(rand.NewSource(seed))}
}

// pause sleeps base × (0.5 + U) × 2^min(attempt, 6), U uniform in [0, 1). It
// returns ctx.Err() if ctx ends first.
func (b *backoff) pause(ctx context.Context, attempt int) error {
	b.mu.Lock()
	u := b.rng.Float64()
	b.mu.Unlock()
	return sleepCtx(ctx, time.Duration(float64(b.base)*(0.5+u)*float64(int(1)<<min(attempt, 6))))
}
