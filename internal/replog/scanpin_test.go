package replog

import (
	"testing"
	"time"
)

// TestPinReadsClampsCompact: an unexpired read pin holds the effective
// compaction horizon at the pin, so versions a pinned scan can still read
// survive GC; once the pin's TTL expires, the next Compact moves past it.
func TestPinReadsClampsCompact(t *testing.T) {
	l, store := openLog(t)
	for pos := int64(1); pos <= 8; pos++ {
		appendApplied(t, l, pos, testEntry("t"+string(rune('0'+pos)), pos-1, map[string]string{"k": "v"}))
	}

	l.PinReads(3, 40*time.Millisecond)
	got, err := l.Compact(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("effective horizon = %d with pin at 3, want 3", got)
	}
	if c := l.CompactedTo(); c != 3 {
		t.Fatalf("CompactedTo = %d, want 3", c)
	}
	// The pinned position itself must still resolve: GC at keepFrom=3 keeps
	// the version visible at 3.
	if _, _, err := store.Read(DataKey("g", "k"), 3); err != nil {
		t.Fatalf("read at pinned position after compact: %v", err)
	}

	// Past the TTL the pin no longer holds the horizon.
	time.Sleep(80 * time.Millisecond)
	if got, err = l.Compact(8, nil); err != nil || got != 8 {
		t.Fatalf("after pin expiry: horizon = %d err=%v, want 8", got, err)
	}
}

// TestPinReadsExtendsNotShrinks: re-pinning a position with a shorter TTL
// must not cut an existing longer pin short.
func TestPinReadsExtendsNotShrinks(t *testing.T) {
	l, _ := openLog(t)
	for pos := int64(1); pos <= 4; pos++ {
		appendApplied(t, l, pos, testEntry("p"+string(rune('0'+pos)), pos-1, map[string]string{"k": "v"}))
	}
	l.PinReads(2, time.Hour)
	l.PinReads(2, -time.Second) // stale extension attempt
	if got, err := l.Compact(4, nil); err != nil || got != 2 {
		t.Fatalf("horizon = %d err=%v, want 2 (hour-long pin must win)", got, err)
	}
}

// pinStats reads the pin map's size and the count of pins walked so far.
func pinStats(l *Log) (held, visits int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pins), l.pinVisits
}

// TestPinReadsDoesNotWalkLivePins: every page of every scan calls PinReads,
// so it must not cost the pins other scans hold. With 10 000 live pins at
// distinct positions, registering them walked a constant per pin, a scan's
// later pages — re-pinning a position already held — walk none, and Compact
// still clamps to the lowest pin that has not expired.
func TestPinReadsDoesNotWalkLivePins(t *testing.T) {
	l, _ := openLog(t)
	for pos := int64(1); pos <= 8; pos++ {
		appendApplied(t, l, pos, testEntry("t"+string(rune('0'+pos)), pos-1, map[string]string{"k": "v"}))
	}
	const pins = 10000
	l.PinReads(2, -time.Second) // expired: holds nothing
	for i := int64(0); i < pins; i++ {
		l.PinReads(5+i, time.Hour)
	}
	held, visits := pinStats(l)
	if held < pins || visits > 3*pins {
		t.Fatalf("%d pins held after registering %d, %d walked (want at most 3 a pin)", held, pins, visits)
	}
	for i := int64(0); i < 1000; i++ {
		l.PinReads(5+i*7%pins, time.Hour)
	}
	if _, again := pinStats(l); again != visits {
		t.Fatalf("1000 re-pins of held positions walked %d pins", again-visits)
	}
	if got, err := l.Compact(8, nil); err != nil || got != 5 {
		t.Fatalf("horizon = %d err=%v, want 5: the lowest unexpired pin", got, err)
	}
}

// TestExpiredPinsDropWithoutCompact: a replica that never compacts must not
// keep the pin of every position ever scanned at. Expired pins go when the
// map has doubled since it was last walked, with no Compact call.
func TestExpiredPinsDropWithoutCompact(t *testing.T) {
	l, _ := openLog(t)
	for pos := int64(1); pos <= 1000; pos++ {
		l.PinReads(pos, -time.Second) // abandoned long ago
		if held, _ := pinStats(l); held > 17 {
			t.Fatalf("%d pins held while registering expired ones", held)
		}
	}
	for pos := int64(2001); pos <= 2200; pos++ {
		l.PinReads(pos, time.Hour)
	}
	if held, _ := pinStats(l); held != 200 {
		t.Fatalf("%d pins held, want the 200 live ones", held)
	}
}
