// Package fleet scales HERD past static sharding: rendezvous hashing
// places keys on replica sets of HERD servers, clients fail over
// between replicas when a shard crashes, and a restarted shard catches
// up from its peers in the background. This is the fleet
// deployment story the paper leaves to "standard practice" (Section 7
// discusses scale-out only as per-machine throughput times machine
// count); fleet supplies the routing, replication and failover
// machinery needed to actually run that fleet. At Replication 1 a
// fleet is plain static sharding.
package fleet

import (
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
// two rings built from the same seed and size agree on every key.
//
// A ring's members are shards 0..n-1 and never change once it is
// built. That lets it build, once, a table of every ordered replica
// set it can return, so Replicas hands out a shared window of it
// instead of a fresh slice.
type Ring struct {
	seed  uint64
	depth int      // longest replica set served, in [1, maxDepth]
	salts []uint64 // salts[id] makes shard id's scores
	// sets holds, for every sequence of k shard ids (k = min(depth,
	// members)), those k ids, at k times the number the sequence
	// spells in base len(salts). Only sequences of distinct ids are
	// ever looked up.
	sets []int
}

// NewRing returns the ring over shards 0..n-1, serving replica sets of
// up to depth shards (clamped to [1, maxDepth]). Scores derive from
// seed, so distinct cluster seeds give distinct placements.
func NewRing(seed uint64, depth, n int) *Ring {
	r := &Ring{seed: seed, depth: min(max(depth, 1), maxDepth)}
	for id := range n {
		// A domain of its own: the key hash already used the seed.
		r.salts = append(r.salts, mix64(seed^0x7f4a7c15^uint64(id)*0x9e3779b97f4a7c15))
	}
	k := min(r.depth, n)
	size := k
	for range k {
		size *= n
	}
	r.sets = make([]int, size)
	for off := 0; off < size; off += k {
		// The digits of off/k, most significant first, are the
		// shard ids of the tuple stored there.
		q := off / k
		for j := k - 1; j >= 0; j-- {
			r.sets[off+j] = q % n
			q /= n
		}
	}
	return r
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

// Size returns the member count.
//
//herd:hotpath
func (r *Ring) Size() int { return len(r.salts) }

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
	n := len(r.salts)
	if n == 0 {
		return nil
	}
	k := min(r.depth, n)
	// Keep the k best (score, shard id) pairs in descending score
	// order; a tie goes to the lower shard id.
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
