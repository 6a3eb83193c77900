package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// Router maps keys to their owning transaction groups. internal/placement
// implements it; core consumes only this interface so the dependency stays
// one-directional (placement is a leaf package).
type Router interface {
	// GroupFor returns the group that owns key.
	GroupFor(key string) string
	// Groups lists every group the router can return, in stable order.
	Groups() []string
}

// KV is the routed key-value facade over a Client (DESIGN.md §12): each key
// belongs to exactly one transaction group per the Router, single-key
// operations run a transaction on the owning group, and multi-key reads fan
// out one batched ReadMulti per owning group concurrently and merge the
// replies back into input order.
//
// The facade deliberately does NOT hide the data model: a cross-group read
// is a set of per-group snapshots (reported per group in MultiRead), not one
// global snapshot — the paper's §2.1 contract is that serializability is
// group-local and groups are independent. Transactions that need multi-key
// atomicity must keep their keys in one group and use Client.Begin directly;
// Tx semantics are untouched by routing.
type KV struct {
	client *Client
	router Router
}

// NewKV builds the routed facade. The router must be non-nil; clients that
// want per-group masters (Master protocol) set Config.MasterFor so commits
// route to each group's master.
func NewKV(client *Client, router Router) *KV {
	if router == nil {
		panic("core: NewKV with nil router")
	}
	return &KV{client: client, router: router}
}

// Client returns the underlying transaction client (for group-local
// multi-key transactions via Begin).
func (kv *KV) Client() *Client { return kv.client }

// Router returns the facade's key router.
func (kv *KV) Router() Router { return kv.router }

// kvMovedHops bounds how many VerdictMoved redirects one KV operation follows: a
// key can hop once per placement growth step, so the budget covers several
// back-to-back grows plus slack.
const kvMovedHops = 8

// kvMigratingRetries bounds how many VerdictMigrating waits one KV operation
// absorbs while a range is mid-cutover at its new group.
const kvMigratingRetries = 64

// redirects is one routed operation's budget for migration verdicts
// (DESIGN.md §15).
type redirects struct {
	op          string
	wait        time.Duration
	hops, waits int
}

// redirects starts op's budget. A wait is a fraction of the client timeout:
// cutover is a few log entries, not a few round trips.
func (kv *KV) redirects(op string) redirects {
	return redirects{op: op, wait: max(kv.client.cfg.timeout()/8, time.Millisecond)}
}

// settle ends a round that hopped (moved is its cause: keys re-routed, or a
// scan destination added) or waited (migrating: a range mid-cutover). A hop
// spends one of kvMovedHops; a round that only waits spends one of
// kvMigratingRetries and sleeps. A spent budget fails the operation with an
// error naming it and the budget and wrapping the cause.
func (r *redirects) settle(ctx context.Context, moved, migrating error) error {
	switch {
	case moved != nil:
		if r.hops++; r.hops > kvMovedHops {
			return fmt.Errorf("core: kv %s: still moved after %d hops: %w", r.op, kvMovedHops, moved)
		}
	case migrating != nil:
		if r.waits++; r.waits > kvMigratingRetries {
			return fmt.Errorf("core: kv %s: still migrating after %d waits: %w", r.op, kvMigratingRetries, migrating)
		}
		return sleepCtx(ctx, r.wait)
	}
	return nil
}

// fanOut runs leg(0) to leg(n-1) and returns once all have: leg(0) on the
// caller's goroutine and each other on its own, so a round of one leg starts
// no goroutine.
func fanOut(n int, leg func(i int)) {
	if n == 1 {
		leg(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			leg(i)
		}()
	}
	leg(0)
	wg.Wait()
}

// keyLeg is one round's leg of a keyed operation: the keys it serves at one
// group, as indexes into the operation's keys, and how it went.
type keyLeg struct {
	group string
	slots []int
	pos   int64
	err   error
}

// route serves Get, Put, Update and ReadMulti: each round groups the keys
// not yet served by owning group and runs serve once per group, with the
// keys' indexes in input order, concurrently (fanOut). A leg refused
// VerdictMoved re-routes the keys the refusal names — all of the leg's keys
// when it names none — to the group its hint names; one refused
// VerdictMigrating runs again after a wait (DESIGN.md §15). Any other leg
// error fails the operation, naming every group that failed. A served leg's
// position goes to positions, if not nil.
func (kv *KV) route(ctx context.Context, op string, keys []string, positions map[string]int64, serve func(group string, slots []int) (int64, error)) error {
	groupOf := make([]string, len(keys))
	for i, key := range keys {
		groupOf[i] = kv.router.GroupFor(key)
	}
	served := make([]bool, len(keys))
	budget := kv.redirects(op)
	for {
		var legs []keyLeg
		for i, g := range groupOf {
			if !served[i] && !slices.ContainsFunc(legs, func(l keyLeg) bool { return l.group == g }) {
				if legs == nil {
					legs = make([]keyLeg, 0, len(keys)-i) // a leg per key left, at most
				}
				legs = append(legs, keyLeg{group: g})
			}
		}
		if len(legs) == 0 {
			return nil
		}
		slots := make([]int, 0, len(keys)) // every leg's slots, cut in turn
		for j := range legs {
			at := len(slots)
			for i, g := range groupOf {
				if !served[i] && g == legs[j].group {
					slots = append(slots, i)
				}
			}
			legs[j].slots = slots[at:len(slots):len(slots)]
		}
		fanOut(len(legs), func(i int) { legs[i].pos, legs[i].err = serve(legs[i].group, legs[i].slots) })
		var moved, migrating error
		var failed map[string]error
		for _, l := range legs {
			if l.err == nil {
				for _, i := range l.slots {
					served[i] = true
				}
				if positions != nil {
					positions[l.group] = l.pos
				}
				continue
			}
			var ref *Refusal
			errors.As(l.err, &ref)
			switch {
			case ref != nil && ref.Verdict == network.VerdictMoved:
				moved = l.err
				for _, i := range l.slots {
					if len(ref.Keys) == 0 || slices.Contains(ref.Keys, keys[i]) {
						groupOf[i] = ref.Hint
					}
				}
			case ref != nil && ref.Verdict == network.VerdictMigrating:
				migrating = l.err
			default:
				if failed == nil {
					failed = make(map[string]error)
				}
				failed[l.group] = l.err
			}
		}
		if failed != nil {
			return unavailable(op, len(legs), failed)
		}
		if err := budget.settle(ctx, moved, migrating); err != nil {
			return err
		}
	}
}

// Get reads one key: a one-key ReadMulti, so a read-only transaction on the
// key's owning group that follows live-migration redirects to its current
// owner. The bool reports whether the key exists.
func (kv *KV) Get(ctx context.Context, key string) (string, bool, error) {
	res, err := kv.readMulti(ctx, "get", []string{key})
	if err != nil {
		return "", false, err
	}
	return res.Vals[0], res.Founds[0], nil
}

// Put writes one key: a write-only transaction on the owning group
// (following live-migration redirects), committed under the client's
// configured protocol.
func (kv *KV) Put(ctx context.Context, key, value string) (CommitResult, error) {
	var res CommitResult
	err := kv.route(ctx, "put", []string{key}, nil, func(group string, _ []int) (int64, error) {
		tx, err := kv.client.Begin(ctx, group)
		if err != nil {
			return 0, err
		}
		tx.Write(key, value)
		res, err = tx.Commit(ctx)
		return res.Pos, err
	})
	return res, err
}

// Update runs a read-modify-write of one key on its owning group, retrying
// on optimistic-concurrency aborts (a conflicting writer forces a fresh
// read) up to attempts times; attempts <= 0 means 16. fn maps the current
// value (and whether it exists) to the new value. Retries back off as the
// commit protocols' own do: the read is served by the nearest replica, and
// one still a few milliseconds of applies behind the entry that won serves
// the losing position again — sixteen immediate retries fit inside that lag.
// fn's error, or running out of attempts, is returned as it is.
func (kv *KV) Update(ctx context.Context, key string, attempts int, fn func(cur string, found bool) (string, error)) (CommitResult, error) {
	if attempts <= 0 {
		attempts = 16
	}
	var last CommitResult
	var own error // not the group's failure
	err := kv.route(ctx, "update", []string{key}, nil, func(group string, _ []int) (int64, error) {
		for i := 0; i < attempts; i++ {
			if i > 0 {
				if err := kv.client.backoff.pause(ctx, i); err != nil {
					return 0, err
				}
			}
			tx, err := kv.client.Begin(ctx, group)
			if err != nil {
				return 0, err
			}
			cur, found, err := tx.Read(ctx, key)
			if err != nil {
				tx.Abort()
				return 0, err
			}
			next, err := fn(cur, found)
			if err != nil {
				tx.Abort()
				own = err
				return 0, nil
			}
			tx.Write(key, next)
			if last, err = tx.Commit(ctx); err != nil || last.Status != stats.Aborted {
				return last.Pos, err
			}
			// Aborted: another transaction wrote first; reread and retry.
		}
		own = fmt.Errorf("core: kv update %q: conflicted %d times", key, attempts)
		return 0, nil
	})
	if err == nil {
		err = own
	}
	return last, err
}

// MultiRead is the result of a routed multi-key read.
type MultiRead struct {
	// Vals and Founds are parallel to the request's keys, in input order,
	// regardless of how the keys were split across groups.
	Vals   []string
	Founds []bool
	// Positions reports the log position each group's leg was served at,
	// keyed by group — the per-group snapshot the values belong to. Keys of
	// the same group share one snapshot; keys of different groups are
	// independent snapshots (group-local serializability, §2.1).
	Positions map[string]int64
}

// ReadMulti reads keys across their owning groups: the key list is
// partitioned by group, each group's slice travels as one batched ReadMulti
// round trip (its own read-only transaction, one snapshot per group), the
// legs run concurrently, and the replies merge back into input order. If any
// group's leg fails the whole read fails, with the error naming every group
// that failed — a partial result would silently narrow the caller's view.
//
// Live-migration redirects are followed per key (route): a leg refused with
// VerdictMoved re-routes exactly the moved keys to the destination group;
// VerdictMigrating waits briefly and retries in place. A read that straddles
// a cutover can therefore serve one group's keys across two legs — each leg
// is still one snapshot, but a group re-read after a redirect reports the
// later leg's position in Positions.
func (kv *KV) ReadMulti(ctx context.Context, keys ...string) (*MultiRead, error) {
	return kv.readMulti(ctx, "readmulti", keys)
}

// readMulti is ReadMulti under op's name. A leg is one positioned read, not
// a transaction: it has no writes and no earlier reads for Tx.ReadMulti's
// rules to answer from, so it sends its keys as they are, at
// network.ResolvePos, and writes the reply's columns into its own keys' slots
// of the result. Its position is the reply's.
func (kv *KV) readMulti(ctx context.Context, op string, keys []string) (*MultiRead, error) {
	out := &MultiRead{
		Vals:      make([]string, len(keys)),
		Founds:    make([]bool, len(keys)),
		Positions: make(map[string]int64),
	}
	err := kv.route(ctx, op, keys, out.Positions, func(group string, slots []int) (int64, error) {
		gkeys := keys
		if len(slots) < len(keys) {
			gkeys = make([]string, len(slots))
			for i, slot := range slots {
				gkeys[i] = keys[slot]
			}
		}
		resp, err := kv.client.readAt(ctx, group, gkeys, network.ResolvePos)
		if err != nil {
			return 0, err
		}
		for i, slot := range slots {
			out.Vals[slot], out.Founds[slot] = resp.Vals[i], resp.Founds[i]
		}
		return resp.TS, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// unavailable is the error of a routed operation some of whose legs failed:
// one line naming each failed group, each group's error wrapped, so that
// errors.Is and errors.As reach a leg's cause as they reach Get's.
func unavailable(op string, legs int, errByGroup map[string]error) error {
	groups := slices.Sorted(maps.Keys(errByGroup))
	format, args := "core: kv %s: %d of %d groups unavailable: ", []any{op, len(groups), legs}
	for i, g := range groups {
		if i > 0 {
			format += "; "
		}
		format += "group %s: %w"
		args = append(args, g, errByGroup[g])
	}
	return fmt.Errorf(format, args...)
}
