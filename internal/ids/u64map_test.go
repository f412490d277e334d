package ids

import (
	"math/rand"
	"testing"
)

// TestU64MapDifferential drives the compact table and a builtin map with
// the same randomized operation stream and checks they agree after every
// step — the correctness oracle the ISSUE requires for swapping the
// store's dedup maps.
func TestU64MapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewU64Map(0)
	ref := make(map[uint64]uint32)

	// Keys drawn from a small-ish space so overwrites happen, plus the
	// zero key and adversarial near-collision runs.
	const ops = 200_000
	for i := 0; i < ops; i++ {
		var k uint64
		switch rng.Intn(10) {
		case 0:
			k = 0 // out-of-band slot
		case 1, 2:
			k = uint64(rng.Intn(64)) // hot overwrite zone
		case 3:
			k = 1 << uint(rng.Intn(64)) // sparse high-bit keys
		default:
			k = rng.Uint64() >> uint(rng.Intn(32))
		}
		if rng.Intn(3) == 0 {
			got, ok := m.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, got, ok, want, wantOK)
			}
		} else {
			v := uint32(rng.Int31())
			m.Put(k, v)
			ref[k] = v
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, m.Len(), len(ref))
		}
	}

	// Full sweep: every reference entry must be retrievable.
	for k, want := range ref {
		got, ok := m.Get(k)
		if !ok || got != want {
			t.Fatalf("final Get(%d) = (%d,%v), want (%d,true)", k, got, ok, want)
		}
	}
	// And a sample of absent keys must stay absent.
	for i := 0; i < 10_000; i++ {
		k := rng.Uint64() | 1<<63
		if _, seen := ref[k]; seen {
			continue
		}
		if _, ok := m.Get(k); ok {
			t.Fatalf("Get(%d) found a key that was never inserted", k)
		}
	}
}

func TestU64MapSequentialKeys(t *testing.T) {
	// Snowflake-style dense sequential IDs are the store's real workload;
	// they stress the probe sequence more than random keys do.
	m := NewU64Map(1000)
	const n = 500_000
	for i := uint64(1); i <= n; i++ {
		m.Put(i, uint32(i%1000))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(1); i <= n; i++ {
		v, ok := m.Get(i)
		if !ok || v != uint32(i%1000) {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := m.Get(n + 1); ok {
		t.Fatal("found key past the inserted range")
	}
}

func TestU64MapPresize(t *testing.T) {
	m := NewU64Map(100)
	if got := len(m.keys); got < 112 { // 100/0.9 rounded up to a power of two
		t.Fatalf("NewU64Map(100) allocated %d slots; wants room for 100 under 90%% load", got)
	}
	m2 := NewU64Map(0)
	if len(m2.keys) != u64MapMinSlots {
		t.Fatalf("NewU64Map(0) allocated %d slots, want %d", len(m2.keys), u64MapMinSlots)
	}
}

func BenchmarkU64MapPut(b *testing.B) {
	m := NewU64Map(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(uint64(i)+1, uint32(i))
	}
}

func BenchmarkU64MapGetHit(b *testing.B) {
	const n = 1 << 20
	m := NewU64Map(n)
	for i := uint64(1); i <= n; i++ {
		m.Put(i, uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i%n) + 1)
	}
}
