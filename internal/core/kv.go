package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
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

// retryDelay is the wait between those retries: a fraction of the
// client timeout — cutover is a few log entries, not a few round trips.
func (kv *KV) retryDelay() time.Duration {
	d := kv.client.cfg.timeout()
	if d /= 8; d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// follow runs op against key's owning group, following live-migration
// redirects (DESIGN.md §15): a Refusal with VerdictMoved re-routes to the
// destination group its hint names (the key's range migrated), one with
// VerdictMigrating waits briefly and retries in place (the range is
// mid-cutover). Any other outcome returns as-is.
func (kv *KV) follow(ctx context.Context, key string, op func(group string) error) error {
	group := kv.router.GroupFor(key)
	hops, waits := 0, 0
	for {
		err := op(group)
		var ref *Refusal
		errors.As(err, &ref)
		switch {
		case ref != nil && ref.Verdict == network.VerdictMoved:
			if hops++; hops > kvMovedHops {
				return err
			}
			group = ref.Hint
		case ref != nil && ref.Verdict == network.VerdictMigrating:
			if waits++; waits > kvMigratingRetries {
				return err
			}
			if serr := sleepCtx(ctx, kv.retryDelay()); serr != nil {
				return serr
			}
		default:
			return err
		}
	}
}

// Get reads one key: a read-only transaction on the owning group, following
// live-migration redirects to the key's current owner. The bool reports
// whether the key exists.
func (kv *KV) Get(ctx context.Context, key string) (string, bool, error) {
	var val string
	var found bool
	err := kv.follow(ctx, key, func(group string) error {
		tx, err := kv.client.Begin(ctx, group)
		if err != nil {
			return err
		}
		defer tx.Abort()
		val, found, err = tx.Read(ctx, key)
		return err
	})
	if err != nil {
		return "", false, err
	}
	return val, found, nil
}

// Put writes one key: a write-only transaction on the owning group
// (following live-migration redirects), committed under the client's
// configured protocol.
func (kv *KV) Put(ctx context.Context, key, value string) (CommitResult, error) {
	var res CommitResult
	err := kv.follow(ctx, key, func(group string) error {
		tx, err := kv.client.Begin(ctx, group)
		if err != nil {
			return err
		}
		if err := tx.Write(key, value); err != nil {
			return err
		}
		res, err = tx.Commit(ctx)
		return err
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
func (kv *KV) Update(ctx context.Context, key string, attempts int, fn func(cur string, found bool) (string, error)) (CommitResult, error) {
	if attempts <= 0 {
		attempts = 16
	}
	var last CommitResult
	err := kv.follow(ctx, key, func(group string) error {
		for i := 0; i < attempts; i++ {
			if i > 0 {
				if err := kv.client.backoff.pause(ctx, i); err != nil {
					return err
				}
			}
			tx, err := kv.client.Begin(ctx, group)
			if err != nil {
				return err
			}
			cur, found, err := tx.Read(ctx, key)
			if err != nil {
				tx.Abort()
				return err
			}
			next, err := fn(cur, found)
			if err != nil {
				tx.Abort()
				return err
			}
			tx.Write(key, next)
			last, err = tx.Commit(ctx)
			if err != nil {
				return err
			}
			if last.Status != stats.Aborted {
				return nil
			}
			// Aborted: another transaction wrote first; reread and retry.
		}
		return fmt.Errorf("core: kv update %q: conflicted %d times", key, attempts)
	})
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
// Live-migration redirects are followed per key (DESIGN.md §15): a leg
// refused with VerdictMoved re-routes exactly the moved keys to the destination
// group and retries; VerdictMigrating waits briefly and retries in place. A read
// that straddles a cutover can therefore serve one group's keys across two
// legs — each leg is still one snapshot, but a group re-read after a redirect
// reports the later leg's position in Positions.
func (kv *KV) ReadMulti(ctx context.Context, keys ...string) (*MultiRead, error) {
	out := &MultiRead{
		Vals:      make([]string, len(keys)),
		Founds:    make([]bool, len(keys)),
		Positions: make(map[string]int64),
	}
	if len(keys) == 0 {
		return out, nil
	}
	groupOf := make([]string, len(keys))
	for i, key := range keys {
		groupOf[i] = kv.router.GroupFor(key)
	}
	done := make([]bool, len(keys))
	hops, waits := 0, 0
	for {
		// Partition the pending slots preserving input order per group (the
		// per-group reply is parallel to the per-group request slice, so
		// order round-trips).
		slots := make(map[string][]int)
		for i := range keys {
			if !done[i] {
				slots[groupOf[i]] = append(slots[groupOf[i]], i)
			}
		}
		if len(slots) == 0 {
			return out, nil
		}

		type legResult struct {
			group string
			idx   []int
			pos   int64
			err   error
		}
		var wg sync.WaitGroup
		results := make(chan legResult, len(slots))
		var mu sync.Mutex // guards out.Vals/out.Founds slot writes
		for g, idx := range slots {
			wg.Add(1)
			go func(group string, idx []int) {
				defer wg.Done()
				tx, err := kv.client.Begin(ctx, group)
				if err != nil {
					results <- legResult{group: group, idx: idx, err: err}
					return
				}
				defer tx.Abort()
				gkeys := make([]string, len(idx))
				for i, slot := range idx {
					gkeys[i] = keys[slot]
				}
				vals, founds, err := tx.ReadMulti(ctx, gkeys...)
				if err != nil {
					results <- legResult{group: group, idx: idx, err: err}
					return
				}
				mu.Lock()
				for i, slot := range idx {
					out.Vals[slot] = vals[i]
					out.Founds[slot] = founds[i]
				}
				mu.Unlock()
				results <- legResult{group: group, idx: idx, pos: tx.ReadPos()}
			}(g, idx)
		}
		wg.Wait()
		close(results)

		var failed []string
		errByGroup := make(map[string]error)
		moved, migrating := false, false
		for r := range results {
			var ref *Refusal
			errors.As(r.err, &ref)
			switch {
			case r.err == nil:
				out.Positions[r.group] = r.pos
				for _, slot := range r.idx {
					done[slot] = true
				}
			case ref != nil && ref.Verdict == network.VerdictMoved:
				moved = true
				// Re-route exactly the moved keys; the leg's other keys
				// retry on the same group. A hint without keys moves the
				// whole leg (conservative: the destination re-fences).
				movedKeys := make(map[string]bool, len(ref.Keys))
				for _, k := range ref.Keys {
					movedKeys[k] = true
				}
				for _, slot := range r.idx {
					if len(ref.Keys) == 0 || movedKeys[keys[slot]] {
						groupOf[slot] = ref.Hint
					}
				}
			case ref != nil && ref.Verdict == network.VerdictMigrating:
				migrating = true
			default:
				failed = append(failed, r.group)
				errByGroup[r.group] = r.err
			}
		}
		if len(failed) > 0 {
			sort.Strings(failed)
			msg := ""
			for i, g := range failed {
				if i > 0 {
					msg += "; "
				}
				msg += fmt.Sprintf("group %s: %v", g, errByGroup[g])
			}
			return nil, fmt.Errorf("core: kv readmulti: %d of %d groups unavailable: %s",
				len(failed), len(slots), msg)
		}
		if moved {
			if hops++; hops > kvMovedHops {
				return nil, fmt.Errorf("core: kv readmulti: moved %d times without settling", hops-1)
			}
		}
		if migrating && !moved {
			if waits++; waits > kvMigratingRetries {
				return nil, fmt.Errorf("core: kv readmulti: range still migrating after %d retries", waits-1)
			}
			if err := sleepCtx(ctx, kv.retryDelay()); err != nil {
				return nil, err
			}
		}
	}
}
