// Package workload generates the paper's request mixes (Section 5.2):
// read-intensive (95% GET) and write-intensive (50% GET) workloads over
// uniform or Zipf(0.99)-distributed 16-byte keyhashes, with configurable
// value sizes. Generation is deterministic under a seed, mirroring the
// paper's offline YCSB-generated traces.
package workload

import (
	"math"
	"sync"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// Op is one client request.
type Op struct {
	IsGet bool
	Key   kv.Key
	// Rank is the key's popularity rank (0 = most popular under Zipf);
	// exposed for skew analyses.
	Rank uint64
}

// Config describes a workload.
type Config struct {
	// GetFraction is the GET share: 0.95 (read-intensive), 0.50
	// (write-intensive) or 0.0 (100% PUT) in the paper.
	GetFraction float64
	// Keys is the keyspace size.
	Keys uint64
	// ZipfTheta > 0 draws ranks from a Zipf distribution with this
	// parameter (the paper uses 0.99); 0 means uniform.
	ZipfTheta float64
	// ValueSize is the PUT value size (SV); the paper's default item is
	// 48 B: SK=16, SV=32.
	ValueSize int
	// Seed makes the stream reproducible.
	Seed int64
}

// ReadIntensive returns the paper's 95% GET workload over uniform keys.
func ReadIntensive(keys uint64, valueSize int, seed int64) Config {
	return Config{GetFraction: 0.95, Keys: keys, ValueSize: valueSize, Seed: seed}
}

// WriteIntensive returns the paper's 50% GET workload.
func WriteIntensive(keys uint64, valueSize int, seed int64) Config {
	return Config{GetFraction: 0.50, Keys: keys, ValueSize: valueSize, Seed: seed}
}

// Skewed returns the paper's Zipf(.99) read-intensive workload.
func Skewed(keys uint64, valueSize int, seed int64) Config {
	return Config{GetFraction: 0.95, Keys: keys, ZipfTheta: 0.99, ValueSize: valueSize, Seed: seed}
}

// Generator produces a deterministic op stream.
type Generator struct {
	cfg  Config
	rnd  *sim.Rand
	zipf *Zipf
	val  []byte
}

// NewGenerator returns a generator for cfg.
func NewGenerator(cfg Config) *Generator {
	if cfg.Keys == 0 {
		cfg.Keys = 1
	}
	g := &Generator{cfg: cfg, rnd: sim.NewRand(cfg.Seed)}
	if cfg.ZipfTheta > 0 {
		g.zipf = NewZipf(cfg.Keys, cfg.ZipfTheta, g.rnd)
	}
	g.val = make([]byte, cfg.ValueSize)
	return g
}

// Next returns the next op.
func (g *Generator) Next() Op {
	var rank uint64
	if g.zipf != nil {
		rank = g.zipf.Next()
	} else {
		rank = uint64(g.rnd.Int63n(int64(g.cfg.Keys)))
	}
	return Op{
		IsGet: g.rnd.Float64() < g.cfg.GetFraction,
		// Hashing the rank scrambles popularity across the keyhash
		// space, so hot keys land on random partitions (Section 5.7).
		Key:  kv.FromUint64(rank),
		Rank: rank,
	}
}

// Value returns a deterministic value of the configured size for key:
// the first bytes identify the key so reads can be verified end-to-end.
func (g *Generator) Value(key kv.Key) []byte {
	g.val = AppendExpectedValue(g.val[:0], key, g.cfg.ValueSize)
	return g.val
}

// ExpectedValue reports what Value would produce for key with size n —
// for verification on the read side.
func ExpectedValue(key kv.Key, n int) []byte {
	return AppendExpectedValue(make([]byte, 0, n), key, n)
}

// AppendExpectedValue appends ExpectedValue(key, n) to dst and returns
// the extended slice, so a driver can build every value it preloads,
// writes or verifies in one reused buffer.
func AppendExpectedValue(dst []byte, key kv.Key, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, key[i%kv.KeySize]^byte(i))
	}
	return dst
}

// Zipf draws ranks 0..n-1 from a Zipf distribution with parameter theta
// in (0, 1), using the Gray et al. rejection-free method YCSB uses
// (math/rand's Zipf requires s > 1, which excludes the paper's 0.99).
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rnd   *sim.Rand
}

// NewZipf prepares a sampler over [0, n).
func NewZipf(n uint64, theta float64, rnd *sim.Rand) *Zipf {
	if n == 0 {
		n = 1
	}
	z := &Zipf{n: n, theta: theta, rnd: rnd}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zetaMemo caches zeta per (n, theta): every client generator over the
// same key space would otherwise redo the O(n) sum.
var (
	zetaMu   sync.Mutex
	zetaMemo = map[zetaKey]float64{}
)

type zetaKey struct {
	n     uint64
	theta float64
}

// zeta returns the generalized harmonic number H(n, theta), computed
// once per (n, theta) in the process.
func zeta(n uint64, theta float64) float64 {
	zetaMu.Lock()
	defer zetaMu.Unlock()
	k := zetaKey{n, theta}
	v, ok := zetaMemo[k]
	if !ok {
		v = zetaSum(n, theta)
		zetaMemo[k] = v
	}
	return v
}

// zetaSum computes H(n, theta) directly.
func zetaSum(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next rank; 0 is the most popular.
func (z *Zipf) Next() uint64 {
	u := z.rnd.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
