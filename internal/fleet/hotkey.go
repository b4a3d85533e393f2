package fleet

// Client-side hot-key detection (sliding-window top-k) and read
// widening.
//
// A Zipf-skewed read workload concentrates on a handful of keys, and
// placement sends every read of a key to the same primary — so one
// shard saturates while its replicas idle, even though the
// fan-out write path keeps those replicas warm. The fleet already has
// everything it needs to absorb the skew: each hot key's value sits on
// R shards. The tracker below notices the skew at the client and
// widens hot reads round-robin across the healthy replica set, turning
// replication capacity into read capacity exactly where the load is.
//
// Detection is a space-saving top-k sketch over a two-epoch sliding
// window: bounded memory (Config.HotKeyTrack entries), O(k) per read,
// and fully deterministic — the eviction victim is the first minimum
// in insertion order, never a map walk.

import (
	"slices"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// hotEntry is one tracked key's sketch state.
type hotEntry struct {
	key  kv.Key
	cur  int // reads observed in the current epoch
	prev int // reads observed in the previous epoch
	rr   int // round-robin cursor for widened reads of this key
}

// count is the sliding-window estimate: the two-epoch sum approximates
// a window of [window, 2*window) trailing virtual time.
//
//herd:hotpath
func (e *hotEntry) count() int { return e.cur + e.prev }

// hotTracker is the per-client detector. Not safe for use outside the
// simulation's single-threaded event loop (like the Client owning it).
type hotTracker struct {
	cap       int      // max tracked keys
	threshold int      // window count at which a key classifies hot
	window    sim.Time // epoch length
	epoch     sim.Time // start of the current epoch
	entries   []hotEntry
}

func newHotTracker(capN, threshold int, window sim.Time) *hotTracker {
	return &hotTracker{cap: capN, threshold: threshold, window: window}
}

// rotate advances the epoch clock: each elapsed window shifts cur into
// prev, so counts age out after at most two windows. Entries that
// decay to zero leave the table. An idle gap fast-forwards in one step
// rather than spinning per window.
//
//herd:hotpath
func (h *hotTracker) rotate(now sim.Time) {
	for now >= h.epoch+h.window {
		if len(h.entries) == 0 {
			h.epoch += ((now - h.epoch) / h.window) * h.window
			return
		}
		h.epoch += h.window
		live := h.entries[:0]
		for _, e := range h.entries {
			e.prev, e.cur = e.cur, 0
			if e.prev > 0 {
				live = append(live, e)
			}
		}
		h.entries = live
	}
}

// observe records a read of key at virtual time now and returns its
// entry. When the table is full, the coldest resident (first minimum
// in insertion order — deterministic) is evicted and the newcomer
// inherits its count, the space-saving move that lets a genuinely hot
// new key climb past long-tracked lukewarm ones.
//
//herd:hotpath
func (h *hotTracker) observe(key kv.Key, now sim.Time) *hotEntry {
	h.rotate(now)
	for i := range h.entries {
		if h.entries[i].key == key {
			h.entries[i].cur++
			return &h.entries[i]
		}
	}
	if len(h.entries) < h.cap {
		h.entries = append(h.entries, hotEntry{key: key, cur: 1})
		return &h.entries[len(h.entries)-1]
	}
	min := 0
	for i := 1; i < len(h.entries); i++ {
		if h.entries[i].count() < h.entries[min].count() {
			min = i
		}
	}
	e := &h.entries[min]
	*e = hotEntry{key: key, cur: e.cur + 1, prev: e.prev}
	return e
}

// isHot reports whether an entry's windowed count crossed the
// threshold.
//
//herd:hotpath
func (h *hotTracker) isHot(e *hotEntry) bool { return e.count() >= h.threshold }

// hotKeys counts currently-hot entries (feeds the fleet.hotkey.hot
// gauge).
//
//herd:hotpath
func (h *hotTracker) hotKeys() int {
	n := 0
	for i := range h.entries {
		if h.isHot(&h.entries[i]) {
			n++
		}
	}
	return n
}

// widen observes key in the hot tracker and, for a hot key, rotates
// the healthy front of the read order in place so consecutive reads
// spread round-robin across replicas instead of hammering the primary.
// Probationed replicas stay at the back: widening recruits healthy
// capacity, it never steers load onto a struggling shard.
//
//herd:hotpath
func (c *Client) widen(key kv.Key, order []int) {
	now := c.now()
	e := c.hot.observe(key, now)
	c.telHotKeys.Set(int64(c.hot.hotKeys()))
	if !c.hot.isHot(e) {
		return
	}
	front := 0
	for front < len(order) && c.readPreferred(order[front], now) {
		front++
	}
	if front < 2 {
		return // nowhere to widen to
	}
	k := e.rr % front
	e.rr++
	if k == 0 {
		return // this turn of the rotation lands on the primary
	}
	// order[:front] becomes order[k:front] then order[:k].
	slices.Reverse(order[:k])
	slices.Reverse(order[k:front])
	slices.Reverse(order[:front])
	c.hotWidened++
	c.telHotWidened.Inc()
}
