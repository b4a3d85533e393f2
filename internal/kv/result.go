// Unified client-facing operation outcome and the common KV client
// interface. HERD, Pilaf-em, FaRM-em and the fleet layer all complete
// operations with the same Result shape and satisfy the same KV
// interface, so drivers, experiments and applications are written once
// against this vocabulary instead of switching on system-specific
// result types.
package kv

import "herdkv/internal/sim"

// Status is the shared outcome vocabulary of a key-value operation.
// Every backend maps its wire-level response onto one of these four
// codes, so callers never need to inspect system-specific fields to
// classify an outcome.
type Status uint8

// Operation outcomes.
const (
	// StatusUnknown is the zero value: the operation has not resolved
	// (or a legacy constructor forgot to classify it).
	StatusUnknown Status = iota
	// StatusHit: the operation was served and found/applied its key — a
	// GET that returned a value or a PUT that was stored.
	StatusHit
	// StatusMiss: the operation was served but the key was absent (GET
	// miss) or the store refused the update.
	StatusMiss
	// StatusTimeout: the operation failed terminally after exhausting
	// its retry budget — the server is crashed, partitioned away, or
	// the fabric ate every attempt. Result.Err is non-nil.
	StatusTimeout
	// StatusFlushed: the operation was aborted because its queue pair
	// flushed in error with no retry machinery to reissue it.
	StatusFlushed
)

// String returns the lowercase status word used in tables and logs.
func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusMiss:
		return "miss"
	case StatusTimeout:
		return "timeout"
	case StatusFlushed:
		return "flushed"
	}
	return "unknown"
}

// Served reports whether the server answered the operation (hit or
// miss) as opposed to it failing in transit.
func (s Status) Served() bool { return s == StatusHit || s == StatusMiss }

// Result is the outcome of one key-value operation, delivered to the
// caller's callback when the operation resolves. It is shared by every
// backend; Status carries the unified outcome classification.
type Result struct {
	Key     Key
	IsGet   bool
	Status  Status
	Value   []byte // GET hit: the value, owned by the callback (see KV)
	Latency sim.Time
	Err     error // terminal failure (e.g. a retry-budget timeout); nil on a served response

	// Lease is the absolute virtual-time expiry of the freshness lease
	// the server granted alongside a GET hit, or zero when the backend
	// grants no leases (core.Config.LeaseTTL unset, non-HERD backends).
	// A near cache may serve the value locally until this instant; see
	// docs/CACHING.md for the contract.
	Lease sim.Time

	// Reads counts client-driven READ verbs issued for this operation
	// (Pilaf bucket probes + extent READ, FaRM neighborhood + value
	// READ). Zero for server-CPU designs like HERD.
	Reads int
}

// KV is the common client interface implemented by every key-value
// backend: HERD (core.Client), the fleet deployment, and the Pilaf-em
// and FaRM-em baselines. Operations are asynchronous; cb runs on the
// simulation engine when the operation resolves. The returned error
// reports synchronous rejection (malformed key/value) only —
// asynchronous failures arrive as Result.Status / Result.Err.
//
// Completion: an accepted op's callback runs exactly once when the
// backend has a retry budget (core.Config.RetryTimeout set; a fleet
// always sets it): the op is served, or it fails with a Result.Err
// (core.ErrTimedOut once the budget is spent). Layers above rely on
// this and arm no timer of their own: the near cache's parked readers
// wait on the filler's Get. Without retries an op lost on the wire
// never completes.
//
// Buffer ownership: Put copies value before it returns, so the caller
// may reuse or overwrite the buffer at once, and layers above may pass
// pooled buffers down. A Result's Value belongs to the callback that
// receives it: the callback may keep or modify it, and no backend or
// cache retains a reference to it. A backend may cut values from a
// shared block (Slab) rather than allocate each one: every value is
// cut once and capacity-clipped, so writing into it or appending to it
// reaches no other value, but a value the callback keeps pins its whole
// 4 KiB block. The conformance suite (internal/kv/kvtest) checks these
// rules for every backend.
type KV interface {
	// Get fetches key; cb receives a hit with the value, or a miss.
	Get(key Key, cb func(Result)) error
	// Put stores value under key.
	Put(key Key, value []byte, cb func(Result)) error
}
