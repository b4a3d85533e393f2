package verbs

// fifo is a first-in first-out queue on a ring buffer, used for a QP's
// send, receive and ACK queues. Popping zeroes the vacated slot, so a
// popped work request (and the payload and trace it points at) is not
// kept reachable, and the ring reuses its storage once grown to the
// queue's high-water mark, so a steady post/complete loop allocates
// nothing.
type fifo[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int
	n    int
}

// Len reports the number of queued values.
func (q *fifo[T]) Len() int { return q.n }

// at returns the i-th queued value, oldest first.
func (q *fifo[T]) at(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// front returns the oldest value without removing it.
func (q *fifo[T]) front() T { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest value; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
