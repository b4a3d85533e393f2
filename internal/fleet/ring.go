// Package fleet scales HERD past static sharding: rendezvous hashing
// places keys on replica sets of HERD servers, clients fail over
// between replicas when a shard crashes, and shards can join a live
// deployment with background key migration. This is the fleet
// deployment story the paper leaves to "standard practice" (Section 7
// discusses scale-out only as per-machine throughput times machine
// count); fleet supplies the routing, replication and failover
// machinery needed to actually run that fleet. At Replication 1 a
// fleet is plain static sharding.
package fleet

import (
	"slices"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
)

// maxDepth bounds a ring's replica-set length (its depth): Replicas
// ranks a key's top shards in fixed-size arrays, and the ring's table
// of ordered replica sets grows as members^depth.
const maxDepth = 4

// PlacementSeed derives the key-placement hash seed for a deployment
// whose first server runs on m. It folds the machine's deterministic
// seed (itself derived from the cluster seed) through a mixer, so two
// clusters built with different seeds place keys differently while any
// one cluster's placement replays exactly.
func PlacementSeed(m *cluster.Machine) uint64 {
	var k kv.Key
	return k.Hash64(uint64(m.Seed) ^ 0x54a6d)
}

// Ring places keys by rendezvous (highest-random-weight) hashing:
// every member shard gets a score for the key, and the key's replica
// set is the members with the highest scores, best first. A score
// depends only on (seed, key, shard), never on the other members, so
// two rings built from the same seed with the same members agree on
// every key, and a membership change moves exactly the keys whose top
// scores include the shard that joined or left.
//
// Rings are immutable once built; Deployment swaps whole rings
// atomically when a membership change commits, so in-flight routing
// decisions are never half-updated. Immutability also lets a ring
// build, once, a table of every ordered replica set it can return, so
// Replicas hands out a shared window of it instead of a fresh slice.
type Ring struct {
	seed   uint64
	depth  int      // longest replica set served, in [1, maxDepth]
	shards []int    // member shard ids, ascending
	salts  []uint64 // salts[i] makes shards[i]'s scores
	// sets holds, for every sequence of k member indexes (k =
	// min(depth, members)), the k shard ids it names, at k times the
	// number the sequence spells in base len(shards). Only sequences
	// of distinct indexes are ever looked up.
	sets []int
}

// NewRing returns an empty ring serving replica sets of up to depth
// shards (clamped to [1, maxDepth]). Scores derive from seed, so
// distinct cluster seeds give distinct placements.
func NewRing(seed uint64, depth int) *Ring {
	return &Ring{seed: seed, depth: min(max(depth, 1), maxDepth)}
}

// mix64 is the splitmix64 finalizer: a bijection whose every output
// bit depends on every input bit.
//
//herd:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// WithShard returns a copy of the ring with shard added (no-op copy if
// already a member).
func (r *Ring) WithShard(shard int) *Ring {
	shards := slices.Clone(r.shards)
	if !r.Has(shard) {
		shards = append(shards, shard)
		slices.Sort(shards)
	}
	return r.with(shards)
}

// with builds a ring on r's seed and depth over the given ascending
// members: their salts and the table of every ordered k-tuple.
func (r *Ring) with(shards []int) *Ring {
	nr := &Ring{seed: r.seed, depth: r.depth, shards: shards}
	n := len(shards)
	for _, s := range shards {
		// A domain of its own: the key hash already used the seed.
		nr.salts = append(nr.salts, mix64(r.seed^0x7f4a7c15^uint64(s)*0x9e3779b97f4a7c15))
	}
	k := min(r.depth, n)
	size := k
	for range k {
		size *= n
	}
	nr.sets = make([]int, size)
	for off := 0; off < size; off += k {
		// The digits of off/k, most significant first, are the
		// member indexes of the tuple stored there.
		q := off / k
		for j := k - 1; j >= 0; j-- {
			nr.sets[off+j] = shards[q%n]
			q /= n
		}
	}
	return nr
}

// Shards returns the member shard ids, ascending.
func (r *Ring) Shards() []int { return slices.Clone(r.shards) }

// Size returns the member count.
//
//herd:hotpath
func (r *Ring) Size() int { return len(r.shards) }

// Has reports whether shard is a ring member.
func (r *Ring) Has(shard int) bool { return slices.Contains(r.shards, shard) }

// Replicas returns the key's replica set: the rf members with the
// highest scores for the key, highest first. Index 0 is the primary.
// rf is clamped to the ring's depth and member count.
//
// The slice is shared by every caller and must not be modified: it is
// a window of the ring's table, capacity-clipped so an append copies
// instead of writing into the ring.
//
//herd:hotpath
func (r *Ring) Replicas(key kv.Key, rf int) []int {
	n := len(r.shards)
	if n == 0 {
		return nil
	}
	k := min(r.depth, n)
	// Keep the k best (score, member index) pairs in descending score
	// order; a tie goes to the lower index, so to the lower shard id.
	var best [maxDepth]uint64
	var top [maxDepth]int
	h := key.Hash64(r.seed)
	have := 0
	for i, salt := range r.salts {
		s := mix64(h ^ salt)
		j := have
		if have < k {
			have++
		} else if s <= best[k-1] {
			continue
		} else {
			j = k - 1
		}
		for ; j > 0 && best[j-1] < s; j-- {
			best[j], top[j] = best[j-1], top[j-1]
		}
		best[j], top[j] = s, i
	}
	off := 0
	for _, i := range top[:k] {
		off = off*n + i
	}
	off *= k
	rf = min(max(rf, 1), k)
	return r.sets[off : off+rf : off+rf]
}
