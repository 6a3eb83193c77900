package core

import (
	"encoding/json"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/replog"
)

// Operator-facing administration: replica status inspection and remotely
// triggered log compaction. These handlers are trusted-network operations —
// a production deployment would gate them behind authentication, which is
// out of scope for the reproduction (the paper's prototype has no admin
// plane at all).

// GroupStatus describes one replica's view of a transaction group.
type GroupStatus struct {
	// DC is the reporting datacenter.
	DC string `json:"dc"`
	// Group is the transaction group key.
	Group string `json:"group"`
	// LastApplied is the highest contiguously applied log position.
	LastApplied int64 `json:"lastApplied"`
	// CompactedTo is the local compaction horizon (0 = never compacted).
	CompactedTo int64 `json:"compactedTo"`
	// LogEntries is the number of decided entries held locally.
	LogEntries int `json:"logEntries"`
	// DataKeys is the number of data items with at least one version.
	DataKeys int `json:"dataKeys"`
	// Leader is the computed leader for the next log position ("" if
	// unknown).
	Leader string `json:"leader"`
	// Epoch and Master report the prevailing master epoch state for the
	// group as this replica has observed it (0/"" before any claim), and
	// LeaseValid whether the holder's lease is still live locally
	// (DESIGN.md §11).
	Epoch      int64  `json:"epoch,omitempty"`
	Master     string `json:"master,omitempty"`
	LeaseValid bool   `json:"leaseValid,omitempty"`
	// Groups lists every transaction group this replica serves (group
	// discovery, DESIGN.md §12): a routed client or operator CLI asks any
	// replica for the status of one group and learns the full group set of
	// the deployment in the same reply.
	Groups []string `json:"groups,omitempty"`
	// Fault is the replica's storage-engine fail-stop reason, "" while
	// healthy. A faulted replica refuses mutations with
	// VerdictReplicaFailed and declines mastership; reads and catch-up keep
	// serving (DESIGN.md §14, fail-stop → failover).
	Fault string `json:"fault,omitempty"`
	// ScrubRuns counts completed background scrub passes and ScrubCorrupt
	// lists the files the latest pass found corrupt (disk engine only;
	// both zero/empty for in-memory replicas or before the first pass).
	ScrubRuns    int      `json:"scrubRuns,omitempty"`
	ScrubCorrupt []string `json:"scrubCorrupt,omitempty"`
	// Migrations lists the handoff records applied to this group's log in
	// log order (e.g. "out g3->g9 v9 @17"), the operator-facing live
	// migration status (DESIGN.md §15). Empty for a group that never
	// migrated.
	Migrations []string `json:"migrations,omitempty"`
}

// Status reports this replica's view of a group. The applied horizon and
// compaction horizon come from the replicated log's in-memory watermark
// state — no meta-row reads.
func (s *Service) Status(group string) GroupStatus {
	last := s.lastApplied(group)
	epoch, leaseValid := s.Mastership(group)
	st := GroupStatus{
		DC:          s.dc,
		Group:       group,
		LastApplied: last,
		CompactedTo: s.CompactedTo(group),
		LogEntries:  s.log(group).Count(),
		DataKeys:    s.countRows(replog.DataPrefix(group)),
		Leader:      s.Leader(group, last+1),
		Epoch:       epoch.Epoch,
		Master:      epoch.Master,
		LeaseValid:  leaseValid,
		Groups:      s.Groups(),
	}
	for _, rec := range s.log(group).Migrations().Records {
		st.Migrations = append(st.Migrations, rec.String())
	}
	if err := s.replicaFault(); err != nil {
		st.Fault = err.Error()
	}
	// The scrub lives in the disk engine; probe it through the optional
	// health interface so core stays decoupled from the disk package.
	if hr, ok := s.store.Engine().(interface {
		HealthSummary() (string, int, []string)
	}); ok {
		fault, runs, corrupt := hr.HealthSummary()
		if st.Fault == "" {
			st.Fault = fault
		}
		st.ScrubRuns = runs
		st.ScrubCorrupt = corrupt
	}
	return st
}

// countRows counts the rows under prefix (short by the unwalked rest if the
// store closes mid-walk).
func (s *Service) countRows(prefix string) int {
	n := 0
	_ = s.store.WalkPrefix(prefix, kvstore.Latest, func(kvstore.ScanRow) { n++ })
	return n
}

// handleStats serves a status request; the reply payload is JSON.
func (s *Service) handleStats(req network.Message) network.Message {
	blob, err := json.Marshal(s.Status(req.Group))
	if err != nil {
		return network.Status(false, err.Error())
	}
	return network.Message{Kind: network.KindValue, OK: true, Payload: blob}
}

// handleCompact triggers local compaction below req.TS and reports the
// effective horizon.
func (s *Service) handleCompact(req network.Message) network.Message {
	horizon, err := s.Compact(req.Group, req.TS)
	if err != nil {
		return network.Status(false, err.Error())
	}
	return network.Message{Kind: network.KindValue, OK: true, TS: horizon}
}

// ParseGroupStatus decodes a stats reply payload.
func ParseGroupStatus(payload []byte) (GroupStatus, error) {
	var st GroupStatus
	err := json.Unmarshal(payload, &st)
	return st, err
}
