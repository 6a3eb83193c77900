package replog

import "paxoscp/internal/paxos"

// Key construction for the replicated log's kvstore rows. These run on every
// commit, apply, and read, so they avoid fmt.Sprintf: plain concatenation
// compiles to a single allocation, and position keys go through
// kvstore.PosKey (BenchmarkKeyEncoding guards both).
//
// The layout (see DESIGN.md §4):
//
//	data/<group>/<key>   data item versions; version timestamp = log position
//	log/<group>/<pos>    the position's one row, named by paxos.StateKey: the
//	                     acceptor's state (attr "entry" = its vote) until the
//	                     position is decided, the log entry from then on
//	                     (Log.decidedLocked says which it is)
//	meta/<group>         attr "last" = applied watermark, "compacted" = horizon;
//	                     "epoch"/"epochpos"/"master" = prevailing master epoch
//	                     state (DESIGN.md §11; absent before the first claim)

// DataKey is the row holding versions of one data item of a group.
func DataKey(group, key string) string { return "data/" + group + "/" + key }

// DataPrefix is the common prefix of a group's data rows.
func DataPrefix(group string) string { return "data/" + group + "/" }

// LogPrefix is the common prefix of a group's per-position rows.
func LogPrefix(group string) string { return paxos.StatePrefix + group + "/" }

// MetaKey is the row holding the group's applied watermark and compaction
// horizon.
func MetaKey(group string) string { return "meta/" + group }
