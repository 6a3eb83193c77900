package replog

import (
	"fmt"
	"testing"

	"paxoscp/internal/paxos"
)

func TestKeyLayoutMatchesSeedFormat(t *testing.T) {
	cases := []struct{ got, want string }{
		{DataKey("g1", "account/7"), "data/g1/account/7"},
		{DataPrefix("g1"), "data/g1/"},
		{paxos.StateKey("g1", 42), "log/g1/42"},
		{paxos.StateKey("g1", 9223372036854775807), "log/g1/9223372036854775807"},
		{LogPrefix("g1"), "log/g1/"},
		{MetaKey("g1"), "meta/g1"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Fatalf("key = %q, want %q", c.got, c.want)
		}
	}
	// Agreement with the fmt.Sprintf forms the seed used.
	if got, want := paxos.StateKey("grp", 17), fmt.Sprintf("log/%s/%d", "grp", 17); got != want {
		t.Fatalf("StateKey = %q, want %q", got, want)
	}
}

// TestKeyEncodingAllocs pins the allocation-free construction: exactly one
// allocation (the resulting string) per key.
func TestKeyEncodingAllocs(t *testing.T) {
	group, key := "group-1", "account/123"
	if n := testing.AllocsPerRun(200, func() { _ = DataKey(group, key) }); n > 1 {
		t.Fatalf("DataKey allocates %.0f times, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = paxos.StateKey(group, 123456) }); n > 1 {
		t.Fatalf("StateKey allocates %.0f times, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = MetaKey(group) }); n > 1 {
		t.Fatalf("MetaKey allocates %.0f times, want <= 1", n)
	}
}

// BenchmarkKeyEncoding guards the hot-path key builders against regressing
// to fmt.Sprintf (kept as the baseline for comparison).
func BenchmarkKeyEncoding(b *testing.B) {
	group, key := "group-1", "account/123"
	b.Run("DataKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = DataKey(group, key)
		}
	})
	b.Run("StateKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = paxos.StateKey(group, int64(i))
		}
	})
	b.Run("MetaKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = MetaKey(group)
		}
	})
	b.Run("sprintf-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = fmt.Sprintf("log/%s/%d", group, int64(i))
		}
	})
}
