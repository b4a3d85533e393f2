package workload

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

func TestGetFraction(t *testing.T) {
	for _, frac := range []float64{0.95, 0.50, 0.0} {
		g := NewGenerator(Config{GetFraction: frac, Keys: 1000, ValueSize: 32, Seed: 1})
		gets := 0
		n := 20000
		for i := 0; i < n; i++ {
			if g.Next().IsGet {
				gets++
			}
		}
		got := float64(gets) / float64(n)
		if got < frac-0.02 || got > frac+0.02 {
			t.Fatalf("GET fraction = %.3f, want %.2f", got, frac)
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := NewGenerator(ReadIntensive(1000, 32, 7))
	b := NewGenerator(ReadIntensive(1000, 32, 7))
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed, different streams")
		}
	}
}

func TestUniformCoverage(t *testing.T) {
	g := NewGenerator(Config{GetFraction: 1, Keys: 64, Seed: 1})
	counts := make(map[uint64]int)
	n := 64000
	for i := 0; i < n; i++ {
		counts[g.Next().Rank]++
	}
	for r := uint64(0); r < 64; r++ {
		c := counts[r]
		if c < n/64*7/10 || c > n/64*13/10 {
			t.Fatalf("rank %d drawn %d times, want ~%d", r, c, n/64)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Zipf(.99): the most popular key must dominate; the paper notes the
	// hottest key is ~1e5 times more popular than the average over 480M
	// keys. At 100k keys the ratio is smaller but still large.
	rnd := sim.NewRand(1)
	z := NewZipf(100000, 0.99, rnd)
	counts := make(map[uint64]int)
	n := 500000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	avg := float64(n) / 100000
	hottest := float64(counts[0])
	if hottest/avg < 1000 {
		t.Fatalf("hottest/avg = %.0f, want >1000 under Zipf(.99)", hottest/avg)
	}
}

func TestZipfRankMonotonicity(t *testing.T) {
	// Popularity must be non-increasing in rank (allowing noise): check
	// decile mass ordering.
	rnd := sim.NewRand(2)
	z := NewZipf(1000, 0.99, rnd)
	counts := make([]int, 1000)
	for i := 0; i < 300000; i++ {
		counts[z.Next()]++
	}
	decile := func(d int) int {
		s := 0
		for i := d * 100; i < (d+1)*100; i++ {
			s += counts[i]
		}
		return s
	}
	last := decile(0)
	for d := 1; d < 10; d++ {
		cur := decile(d)
		if cur > last {
			t.Fatalf("decile %d mass %d exceeds decile %d mass %d", d, cur, d-1, last)
		}
		last = cur
	}
}

func TestZipfRangeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := uint64(nRaw%1000) + 2
		rnd := sim.NewRand(seed)
		z := NewZipf(n, 0.99, rnd)
		for i := 0; i < 200; i++ {
			if z.Next() >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestValueVerifiable(t *testing.T) {
	g := NewGenerator(ReadIntensive(100, 48, 1))
	k := kv.FromUint64(5)
	v := g.Value(k)
	if len(v) != 48 {
		t.Fatalf("value size = %d", len(v))
	}
	if !bytes.Equal(v, ExpectedValue(k, 48)) {
		t.Fatal("Value and ExpectedValue disagree")
	}
	k2 := kv.FromUint64(6)
	if bytes.Equal(ExpectedValue(k, 48), ExpectedValue(k2, 48)) {
		t.Fatal("different keys produced identical values")
	}
}

// AppendExpectedValue builds ExpectedValue's bytes after whatever dst
// holds, and reuses dst's capacity.
func TestAppendExpectedValue(t *testing.T) {
	k := kv.FromUint64(9)
	buf := AppendExpectedValue(nil, k, 40)
	if !bytes.Equal(buf, ExpectedValue(k, 40)) {
		t.Fatal("AppendExpectedValue and ExpectedValue disagree")
	}
	if got := AppendExpectedValue([]byte("head:"), k, 7); !bytes.Equal(got, append([]byte("head:"), ExpectedValue(k, 7)...)) {
		t.Fatalf("appended after a prefix: %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { buf = AppendExpectedValue(buf[:0], k, 40) }); n != 0 {
		t.Fatalf("rebuilding into a reused buffer: %.0f allocs, want 0", n)
	}
}

func TestSkewedPresetSpreadsHotKeysAcrossPartitions(t *testing.T) {
	// Section 5.7: hashing ranks scrambles hot keys across partitions, so
	// partition load imbalance is much milder than key popularity skew.
	g := NewGenerator(Skewed(1<<20, 32, 3))
	loads := make([]int, 6)
	n := 120000
	for i := 0; i < n; i++ {
		op := g.Next()
		p := int(op.Key.Hash64(0xeee) % 6)
		loads[p]++
	}
	sort.Ints(loads)
	ratio := float64(loads[5]) / float64(loads[0])
	if ratio > 2.0 {
		t.Fatalf("partition imbalance %.2fx too high; hot keys not scrambled", ratio)
	}
}

func TestKeysNeverZero(t *testing.T) {
	g := NewGenerator(Skewed(1000, 32, 4))
	for i := 0; i < 10000; i++ {
		if g.Next().Key.IsZero() {
			t.Fatal("generated the reserved zero keyhash")
		}
	}
}

// TestZetaMemoBitIdentical checks that the memoized harmonic number is
// the same float, bit for bit, as the direct sum, both on the call that
// fills the memo and on the calls served from it, so memoizing moves no
// Zipf sample.
func TestZetaMemoBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{1, 0.99}, {2, 0.99}, {1000, 0.99}, {1 << 16, 0.99}, {1000, 0.5}, {1000, 0}} {
		want := math.Float64bits(zetaSum(tc.n, tc.theta))
		for call := 0; call < 3; call++ {
			if got := math.Float64bits(zeta(tc.n, tc.theta)); got != want {
				t.Errorf("zeta(%d, %v) call %d = %#x, direct sum %#x", tc.n, tc.theta, call, got, want)
			}
		}
	}
	z := NewZipf(5000, 0.99, sim.NewRand(7))
	if got, want := math.Float64bits(z.zetan), math.Float64bits(zetaSum(5000, 0.99)); got != want {
		t.Errorf("NewZipf zetan %#x, direct sum %#x", got, want)
	}
}
