package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"paxoscp/internal/network"
)

// misshapenPage is a paged reply whose key and value columns disagree: two
// keys, one value. The codec decodes the two lists separately, so such a
// datagram arrives without a decode error.
func misshapenPage() []scriptedReply {
	return []scriptedReply{{msg: network.Message{
		Kind: network.KindValue, OK: true, TS: 3,
		Keys: []string{"p/a", "p/b"}, Vals: []string{"1"},
	}}}
}

// TestScanRefusesMisshapenPage: a scan page with fewer values than keys is
// an error, not a panic, as a misshapen ReadMulti reply is.
func TestScanRefusesMisshapenPage(t *testing.T) {
	c := NewClient(1, "A", &scripted{script: misshapenPage()}, Config{Timeout: 30 * time.Millisecond})
	tx, _ := c.Begin(context.Background(), "g")
	sc := tx.Scan("p/")
	if sc.Next(context.Background()) {
		t.Fatalf("Next served row %q from a misshapen page", sc.Key())
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "reply shape") {
		t.Fatalf("Err() = %v, want a reply-shape error", err)
	}
}

// TestMigrateCopyRefusesMisshapenPage: a range-snapshot page with fewer
// values than keys fails the copy round instead of panicking the
// coordinator.
func TestMigrateCopyRefusesMisshapenPage(t *testing.T) {
	c := NewClient(1, "A", &scripted{script: misshapenPage()}, Config{Timeout: 30 * time.Millisecond})
	m := &Migrator{Client: c}
	var readPos int64
	n, _, err := m.copyRange(context.Background(), "g0", "g1", []string{"g0", "g1"}, 0, network.ResolvePos, &readPos)
	if err == nil || !strings.Contains(err.Error(), "reply shape") {
		t.Fatalf("copyRange = %d rows, %v; want a reply-shape error", n, err)
	}
	if n != 0 {
		t.Fatalf("copyRange copied %d rows from a misshapen page", n)
	}
}
