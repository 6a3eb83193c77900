package disk

import (
	"strconv"
	"strings"
)

// Segment and snapshot file naming: wal-<startseq>.log holds records
// startseq, startseq+1, ... positionally (a record's sequence number is
// derived from its position, never stored); snap-<seq>.snap is a kvstore
// snapshot stream (kvstore.Save) reflecting every mutation with sequence
// number <= seq. Both are sequences of the one record format, which lives
// beside the Mutation it encodes (kvstore/record.go).

func segmentName(startSeq uint64) string {
	return "wal-" + pad20(startSeq) + ".log"
}

func snapshotName(seq uint64) string {
	return "snap-" + pad20(seq) + ".snap"
}

func pad20(n uint64) string {
	s := strconv.FormatUint(n, 10)
	if len(s) < 20 {
		s = strings.Repeat("0", 20-len(s)) + s
	}
	return s
}

// parseSeq extracts the sequence number from a segment or snapshot file name,
// returning ok=false for unrelated files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
