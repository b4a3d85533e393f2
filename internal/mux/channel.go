package mux

import (
	"fmt"

	"herdkv/internal/fifo"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
)

// chanOp is one submission-queue entry: the operation plus the routing
// state that demuxes its response (in hardware this is the vcid header
// echoed through the endpoint's in-flight table). Entries are pooled
// per endpoint: done — the completion closure handed to the pooled
// client — is built once per entry and rides through the free list, so
// steady-state submissions allocate nothing.
type chanOp struct {
	ch        *Channel // owning channel while in flight; nil in the pool
	kind      opKind
	key       kv.Key
	value     []byte
	cb        func(kv.Result)
	done      func(kv.Result)
	submitted sim.Time
	started   bool
	trace     *telemetry.Trace
}

// Channel is one logical client riding the endpoint: the unit an
// application holds. It implements kv.KV, so application code written
// against a direct HERD client runs unchanged over the multiplexer. The
// channel's id is its vcid — the tag heading every submission-queue
// entry it produces, by which the endpoint routes responses back.
//
// Channels are free at the server: no connected QP, no request-region
// column, no NIC context. Only the endpoint's pooled clients cost
// server-side state.
type Channel struct {
	ep *Endpoint
	id int

	queue       fifo.Queue[*chanOp] // accepted, not yet issued to the pool
	outstanding int                 // issued to the pool, not yet resolved
	stalled     bool
}

// ID returns the channel's virtual channel id, unique per endpoint.
func (ch *Channel) ID() int { return ch.id }

// Stalled reports whether the channel currently has backlog the
// endpoint could not issue immediately (window full or pool saturated).
func (ch *Channel) Stalled() bool { return ch.stalled }

// Queued returns this channel's backlog depth.
func (ch *Channel) Queued() int { return ch.queue.Len() }

// Get fetches key; cb receives a hit with the value, or a miss.
func (ch *Channel) Get(key kv.Key, cb func(kv.Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	ch.ep.submit(ch, ch.ep.getOp(ch, opGet, key, cb))
	return nil
}

// Put stores value under key. Validation mirrors the HERD client so a
// malformed op is rejected at the channel, before it occupies endpoint
// queue space.
func (ch *Channel) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	if len(value) == 0 {
		return fmt.Errorf("mux: PUT requires a non-empty value")
	}
	if len(value) > mica.MaxValueSize {
		return mica.ErrValueTooLarge
	}
	op := ch.ep.getOp(ch, opPut, key, cb)
	// Copy into the pooled entry's buffer (the caller may reuse value);
	// a recycled entry's capacity makes the copy allocation-free.
	op.value = append(op.value, value...)
	ch.ep.submit(ch, op)
	return nil
}

var _ kv.KV = (*Channel)(nil)
