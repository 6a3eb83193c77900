package history

import (
	"sort"
	"sync"

	"paxoscp/internal/placement"
	"paxoscp/internal/wal"
)

// Online growth support (DESIGN.md §15): the group-set timeline that replaces
// the old static-set foreign-group scan, and the checker's mirror of the
// migration voiding rules M1/M2, so a log that contains handoff entries
// replays to the same serial history the replicas computed.

// GroupTimeline records the evolving group set of a run under online growth.
// Groups are only ever added (placement.Grow is append-only), so the timeline
// is a sequence of eras, each a superset of the last. The workload records
// commits while Cluster.Grow advances the eras; both sides share one timeline.
//
// The old leak scan validated commit groups against a single placement — under
// growth that flags every commit on a post-grow group as foreign (checked
// against the initial set) or silently accepts commits from before a group
// existed (checked against the final set). The timeline keeps every era, so
// the scan can ask the right question: was this group ever part of the run?
type GroupTimeline struct {
	mu   sync.Mutex
	eras [][]string
}

// NewGroupTimeline starts a timeline at the initial group set.
func NewGroupTimeline(initial ...string) *GroupTimeline {
	t := &GroupTimeline{}
	t.eras = append(t.eras, append([]string(nil), initial...))
	return t
}

// Grow records the post-growth group set as a new era. Safe for concurrent
// use with Known/Eras — the grower calls it as each growth step completes.
func (t *GroupTimeline) Grow(groups ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eras = append(t.eras, append([]string(nil), groups...))
}

// Eras returns the recorded group sets in order, earliest first.
func (t *GroupTimeline) Eras() [][]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]string, len(t.eras))
	for i, era := range t.eras {
		out[i] = append([]string(nil), era...)
	}
	return out
}

// Known reports whether group belongs to any era. Because eras only ever add
// groups, this equals membership in the final era — but spelling it as "any
// era" keeps the scan correct even if a future placement learns to shrink.
func (t *GroupTimeline) Known(group string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, era := range t.eras {
		for _, g := range era {
			if g == group {
				return true
			}
		}
	}
	return false
}

// ByGroupTimeline is ByGroup for a run with online growth: commits split per
// group exactly as ByGroup, and each commit's group is validated against the
// timeline. A commit on a group no era contains is a G1 violation — a verdict
// that escaped the placement entirely. The returned map carries only known
// groups; checking it per group therefore covers every legitimate commit,
// including those on groups added mid-run.
func ByGroupTimeline(commits []Commit, t *GroupTimeline) (map[string][]Commit, []Violation) {
	var out []Violation
	byGroup := make(map[string][]Commit)
	for _, c := range commits {
		if !t.Known(c.Group) {
			out = append(out, violationf("G1",
				"commit %s reports group %q, which no era of the run's group-set timeline contains",
				c.ID, c.Group))
			continue
		}
		byGroup[c.Group] = append(byGroup[c.Group], c)
	}
	return byGroup, out
}

// LiveTxns returns, for one group's logs, the IDs of transactions that
// actually committed there — present in a non-fenced entry and not voided by
// a migration rule — mapped to the positions they committed at. The rescale
// nemesis's cross-group leak scan counts live appearances of every reported
// commit across all groups: exactly one, in the commit's own group, means no
// migrated key was lost or double-committed at any point in the handoff.
func LiveTxns(logs map[string]map[int64]wal.Entry) map[string][]int64 {
	merged, _ := mergeLogs(logs)
	fenced := fencedPositions(merged)
	voided := migrationVoids(merged, fenced)
	out := make(map[string][]int64)
	for pos, e := range merged {
		if fenced[pos] {
			continue
		}
		for _, t := range e.Txns {
			if voided[pos][t.ID] {
				continue
			}
			out[t.ID] = append(out[t.ID], pos)
		}
	}
	return out
}

// migRangeAt pairs a handoff's compiled range predicate with the position it
// applied at.
type migRangeAt struct {
	set *placement.MoveSet
	h   *wal.Handoff
	pos int64
}

// migrationVoids mirrors replog's apply-time migration rules over the merged
// log and returns, per position, the transactions voided there:
//
//	M1 — a transaction above an applied HandoffOut writing any key of the
//	     departed range commits nothing;
//	M2 — a non-backfill transaction writing a key of a range prepared but
//	     not yet opened (HandoffPrepare applied, HandoffIn not) commits
//	     nothing.
//
// Epoch-fenced positions (F2) are skipped entirely: a fenced handoff entry
// never applied, so it fences nothing — the same order of rules drain uses.
// Phases index the state the way replog does for the log's own group: in a
// group's log, prepare/in entries can only target it as To and out/tombstone
// as From, because the coordinator submits each phase to the group it
// concerns and the checker runs per group.
func migrationVoids(merged map[int64]wal.Entry, fenced map[int64]bool) map[int64]map[string]bool {
	ps := make([]int64, 0, len(merged))
	hasHandoff := false
	for p, e := range merged {
		ps = append(ps, p)
		if e.IsHandoff() {
			hasHandoff = true
		}
	}
	if !hasHandoff {
		return nil
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })

	var out, inPend []migRangeAt
	voided := make(map[int64]map[string]bool)
	for _, pos := range ps {
		if fenced[pos] {
			continue
		}
		e := merged[pos]
		if h := e.Handoff; h != nil {
			r := migRangeAt{set: placement.NewMoveSet(h.Groups, h.From, h.To), h: h, pos: pos}
			switch h.Phase {
			case wal.HandoffPrepare:
				inPend = append(inPend, r)
			case wal.HandoffOut:
				out = append(out, r)
			case wal.HandoffIn:
				kept := inPend[:0]
				for _, p := range inPend {
					if p.h.From == h.From && p.h.To == h.To && p.h.Version == h.Version {
						continue
					}
					kept = append(kept, p)
				}
				inPend = kept
			}
			continue
		}
		if len(out) == 0 && len(inPend) == 0 {
			continue
		}
		for _, t := range e.Txns {
			if voidsTxn(t, out, inPend) {
				if voided[pos] == nil {
					voided[pos] = make(map[string]bool)
				}
				voided[pos][t.ID] = true
			}
		}
	}
	return voided
}

// voidsTxn is replog's migration rules (migState.voids) restated over the
// checker's state.
func voidsTxn(t wal.Txn, out, inPend []migRangeAt) bool {
	for k := range t.Writes {
		for _, r := range out {
			if r.set.Moves(k) {
				return true // M1
			}
		}
	}
	if !t.Backfill {
		for k := range t.Writes {
			for _, r := range inPend {
				if r.set.Moves(k) {
					return true // M2
				}
			}
		}
	}
	return false
}
