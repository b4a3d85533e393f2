// Package fifo is the first-in first-out queue the model's per-event
// paths share: a QP's send, receive and ACK queues (internal/verbs), a
// HERD client's window and slot-collision waits (internal/core), and the
// READ-based baselines' READ, window and PUT-ack queues
// (internal/readclient).
//
// The queue is a ring buffer. Popping zeroes the vacated slot, so a
// popped value (and whatever it points at) is not kept reachable, and
// the ring reuses its storage once grown to the queue's high-water mark,
// so a steady push/pop loop allocates nothing — where the slice idiom
// q = q[1:] followed by append walks the backing array forward and
// reallocates it on every wrap.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int
	n    int
}

// Len reports the number of queued values.
//
//herd:hotpath
func (q *Queue[T]) Len() int { return q.n }

// at returns the i-th queued value, oldest first.
//
//herd:hotpath
func (q *Queue[T]) at(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Front returns the oldest value without removing it; the queue must be
// non-empty.
//
//herd:hotpath
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Push appends v at the back of the queue.
//
//herd:hotpath
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		// Start at one slot: a HERD client keeps one slot-collision
		// queue per server process, and most never hold an op.
		grown := make([]T, max(1, 2*len(q.buf))) //lint:allow hotalloc — the ring grows to the queue's high-water mark once
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest value; the queue must be
// non-empty.
//
//herd:hotpath
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
