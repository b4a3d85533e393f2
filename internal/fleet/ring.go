// Package fleet scales HERD past static sharding: a consistent-hash
// ring places keys on replica sets of HERD servers, clients fail over
// between replicas when a shard crashes, and shards can join or leave
// a live deployment with background key migration. This is the fleet
// deployment story the paper leaves to "standard practice" (Section 7
// discusses scale-out only as per-machine throughput times machine
// count); fleet supplies the routing, replication and failover
// machinery needed to actually run that fleet.
package fleet

import (
	"sort"

	"herdkv/internal/kv"
)

// ringPoint is one virtual node: a position on the hash circle owned by
// a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring with virtual nodes. Placement is fully
// determined by (seed, vnodes, member set): two rings built from the
// same cluster seed with the same members agree on every key, and
// adding or removing one shard moves only the keys adjacent to that
// shard's virtual nodes.
//
// Rings are immutable once built; Deployment swaps whole rings
// atomically when a membership change commits, so in-flight routing
// decisions are never half-updated. Immutability also lets a ring walk
// the circle once, at build time: every point's clockwise order of
// distinct shards is precomputed, and Replicas returns a window of it.
type Ring struct {
	seed   uint64
	vnodes int
	points []ringPoint // sorted by (hash, shard)
	shards []int       // member shard ids, ascending
	// walk[i*len(shards):(i+1)*len(shards)] lists every member shard in
	// the order a clockwise walk from points[i] first meets it.
	walk []int
}

// NewRing returns an empty ring. Virtual-node positions derive from
// seed, so distinct cluster seeds give distinct placements.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// pointHash positions virtual node v of a shard on the circle.
func (r *Ring) pointHash(shard, v int) uint64 {
	return kv.FromUint64(uint64(shard)<<20 | uint64(v)).Hash64(r.seed)
}

// WithShard returns a copy of the ring with shard added (no-op copy if
// already a member).
func (r *Ring) WithShard(shard int) *Ring {
	nr := r.clone()
	for _, s := range nr.shards {
		if s == shard {
			return nr
		}
	}
	nr.shards = append(nr.shards, shard)
	sort.Ints(nr.shards)
	for v := 0; v < nr.vnodes; v++ {
		nr.points = append(nr.points, ringPoint{hash: nr.pointHash(shard, v), shard: shard})
	}
	nr.sortPoints()
	nr.index()
	return nr
}

// WithoutShard returns a copy of the ring with shard removed.
func (r *Ring) WithoutShard(shard int) *Ring {
	nr := &Ring{seed: r.seed, vnodes: r.vnodes}
	for _, s := range r.shards {
		if s != shard {
			nr.shards = append(nr.shards, s)
		}
	}
	for _, p := range r.points {
		if p.shard != shard {
			nr.points = append(nr.points, p)
		}
	}
	nr.index()
	return nr
}

func (r *Ring) clone() *Ring {
	return &Ring{
		seed:   r.seed,
		vnodes: r.vnodes,
		points: append([]ringPoint(nil), r.points...),
		shards: append([]int(nil), r.shards...),
	}
}

// sortPoints orders by hash with shard id as a deterministic tiebreak.
func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// index precomputes walk: from each point, the distinct shards in the
// order a clockwise walk meets them. Every member owns at least one
// point, so each walk finds all of them.
func (r *Ring) index() {
	n := len(r.shards)
	r.walk = make([]int, 0, len(r.points)*n)
	maxID := 0
	for _, s := range r.shards {
		maxID = max(maxID, s)
	}
	seen := make([]bool, maxID+1)
	for start := range r.points {
		clear(seen)
		from := len(r.walk)
		for i := start; len(r.walk)-from < n; i = (i + 1) % len(r.points) {
			if s := r.points[i].shard; !seen[s] {
				seen[s] = true
				r.walk = append(r.walk, s)
			}
		}
	}
}

// Shards returns the member shard ids, ascending.
func (r *Ring) Shards() []int { return append([]int(nil), r.shards...) }

// Size returns the member count.
//
//herd:hotpath
func (r *Ring) Size() int { return len(r.shards) }

// Has reports whether shard is a ring member.
func (r *Ring) Has(shard int) bool {
	for _, s := range r.shards {
		if s == shard {
			return true
		}
	}
	return false
}

// Replicas returns the key's replica set: the first rf distinct shards
// walking clockwise from the key's position. Index 0 is the primary.
// Fewer than rf members yields the full membership.
//
// The slice is shared by every caller and must not be modified: it is a
// window of the ring's precomputed walk, capacity-clipped so an append
// copies instead of writing into the ring.
//
//herd:hotpath
func (r *Ring) Replicas(key kv.Key, rf int) []int {
	if len(r.points) == 0 {
		return nil
	}
	n := len(r.shards)
	if rf > n {
		rf = n
	}
	if rf < 1 {
		rf = 1
	}
	// The first point at or clockwise of the key's hash (sort.Search,
	// without the closure), wrapping past the last point to the first.
	h := key.Hash64(r.seed)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	base := (lo % len(r.points)) * n
	return r.walk[base : base+rf : base+rf]
}

// Primary returns the key's first replica.
//
//herd:hotpath
func (r *Ring) Primary(key kv.Key) int { return r.Replicas(key, 1)[0] }
