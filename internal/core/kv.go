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
// not yet served by owning group, one leg per group with the keys' indexes
// in input order, and runs round, which serves every leg and sets its
// position or error (eachLeg, KV.readLegs). A leg refused
// VerdictMoved re-routes the keys the refusal names — all of the leg's keys
// when it names none — to the group its hint names; one refused
// VerdictMigrating runs again after a wait (DESIGN.md §15). Any other leg
// error fails the operation, naming every group that failed. A served leg's
// position goes to positions, if not nil.
func (kv *KV) route(ctx context.Context, op string, keys []string, positions map[string]int64, round func(legs []keyLeg)) error {
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
		round(legs)
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

// eachLeg is the round of an operation whose legs are served one at a time:
// serve runs once per leg, the legs concurrently (fanOut).
func eachLeg(serve func(group string, slots []int) (int64, error)) func([]keyLeg) {
	return func(legs []keyLeg) {
		fanOut(len(legs), func(i int) { legs[i].pos, legs[i].err = serve(legs[i].group, legs[i].slots) })
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
	err := kv.route(ctx, "put", []string{key}, nil, eachLeg(func(group string, _ []int) (int64, error) {
		tx, err := kv.client.Begin(ctx, group)
		if err != nil {
			return 0, err
		}
		tx.Write(key, value)
		res, err = tx.Commit(ctx)
		return res.Pos, err
	}))
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
	err := kv.route(ctx, "update", []string{key}, nil, eachLeg(func(group string, _ []int) (int64, error) {
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
	}))
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

// readMulti is ReadMulti under op's name: route's rounds are readLegs.
func (kv *KV) readMulti(ctx context.Context, op string, keys []string) (*MultiRead, error) {
	out := &MultiRead{
		Vals:      make([]string, len(keys)),
		Founds:    make([]bool, len(keys)),
		Positions: make(map[string]int64),
	}
	err := kv.route(ctx, op, keys, out.Positions, func(legs []keyLeg) { kv.readLegs(ctx, keys, legs, out) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readLegs serves one round of a routed read. A leg is one positioned read,
// not a transaction: it has no writes and no earlier reads for
// Tx.ReadMulti's rules to answer from, so it sends its keys as they are, at
// network.ResolvePos, in the request Client.readAt sends, and writes the
// reply's columns into its own keys' slots of out. Its position is the
// reply's.
//
// Every datacenter holds a replica of every group, so a round of several
// legs sends its first hop as one batch to the local replica (readBatch).
// A leg the batch did not serve walks on as toAny would have, the legs
// concurrently (fanOut); a round of one leg is that walk alone.
func (kv *KV) readLegs(ctx context.Context, keys []string, legs []keyLeg, out *MultiRead) {
	if len(legs) == 1 {
		kv.readLeg(ctx, keys, &legs[0], out, 0, errAllServicesUnavailable)
		return
	}
	from, walk := kv.readBatch(ctx, keys, legs, out)
	if len(walk) > 0 {
		fanOut(len(walk), func(i int) {
			l := &legs[walk[i]]
			kv.readLeg(ctx, keys, l, out, from, l.err)
		})
	}
}

// readLeg serves one leg by toAny's walk from sendOrder[from], last its
// failure so far.
func (kv *KV) readLeg(ctx context.Context, keys []string, l *keyLeg, out *MultiRead, from int, last error) {
	lkeys := keys
	if len(l.slots) < len(keys) {
		lkeys = make([]string, len(l.slots))
		for i, slot := range l.slots {
			lkeys[i] = keys[slot]
		}
	}
	resp, err := sender{c: kv.client}.toAnyFrom(ctx, readRequest(l.group, lkeys, network.ResolvePos), from, last)
	if err == nil {
		err = readShape(resp, len(lkeys))
	}
	if l.err = err; err == nil {
		l.serve(resp, out)
	}
}

// serve writes a read reply's columns into the leg's slots of out.
func (l *keyLeg) serve(resp network.Message, out *MultiRead) {
	for i, slot := range l.slots {
		out.Vals[slot], out.Founds[slot] = resp.Vals[i], resp.Founds[i]
	}
	l.pos = resp.TS
}

// errBatchShort is the failure of a leg whose reply a batch's answer lacks.
var errBatchShort = errors.New("core: batch answer lacks the request's reply")

// readBatch sends every leg's read to the local replica in one request
// (network.KindBatch) and serves the legs its answer settles. Each reply in
// the answer goes through the rule toAny applies to a reply
// (sender.anyAnswer): an answer serves its leg, and a refusal every replica
// would give — moved, migrating — is the leg's error, which route acts on. A
// leg it does not settle — a refusal about this replica, a reply the answer
// lacks, a batch that failed — is returned in walk, with its failure in its
// err, to walk on from the next datacenter (from = 1). A batch refused
// whole with VerdictFailed — replies over one datagram, or a payload the
// replica could not parse — is sent again one leg per request from the local
// replica (from = 0), where each leg meets what its request meets alone.
func (kv *KV) readBatch(ctx context.Context, keys []string, legs []keyLeg, out *MultiRead) (from int, walk []int) {
	c := kv.client
	s := sender{c: c}
	dc := c.sendOrder[0]
	bp := batchBufs.Get().(*[]byte)
	payload := (*bp)[:0]
	var stack [8]string
	lkeys := stack[:0] // each leg's keys in turn
	for _, l := range legs {
		lkeys = lkeys[:0]
		for _, slot := range l.slots {
			lkeys = append(lkeys, keys[slot])
		}
		payload = network.AppendBatchItem(payload, readRequest(l.group, lkeys, network.ResolvePos))
	}
	resp, err := s.ask(ctx, dc, network.Message{Kind: network.KindBatch, Payload: payload}, c.cfg.timeout())
	if err == nil {
		// Answered: the replica has read the payload, which a request to the
		// transport's own name shares with it.
		*bp = payload[:0]
		batchBufs.Put(bp)
	}
	if err == nil && resp.OK {
		n := 0
		perr := network.EachReply(resp.Payload, func(m network.Message) bool {
			l := &legs[n]
			done, err := s.anyAnswer(dc, l.group, m, nil)
			if done && err == nil {
				if err = readShape(m, len(l.slots)); err == nil {
					l.serve(m, out)
				}
			}
			if l.err = err; !done {
				walk = append(walk, n)
			}
			n++
			return n < len(legs)
		})
		if perr == nil {
			perr = errBatchShort
		}
		for ; n < len(legs); n++ {
			legs[n].err = perr
			walk = append(walk, n)
		}
		return 1, walk
	}
	from, cause := 1, err
	if err == nil {
		ref := newRefusal(dc, resp)
		if cause = ref; ref.Verdict == network.VerdictFailed {
			from, cause = 0, errAllServicesUnavailable
		}
	}
	walk = make([]int, len(legs))
	for i := range legs {
		legs[i].err = cause
		walk[i] = i
	}
	return from, walk
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
