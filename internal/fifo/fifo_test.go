package fifo

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
)

// The ring keeps FIFO order across wraparound and growth, and zeroes
// every slot it pops.
func TestFIFOOrderAndRelease(t *testing.T) {
	var q Queue[*int]
	vals := make([]int, 100)
	next, popped := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(&vals[next%len(vals)])
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if q.Front() != &vals[popped%len(vals)] || q.at(0) != q.Front() {
				t.Fatalf("front %d is the wrong element", popped)
			}
			if got := q.Pop(); got != &vals[popped%len(vals)] {
				t.Fatalf("pop %d returned the wrong element", popped)
			}
			popped++
		}
		if q.Len() != next-popped {
			t.Fatalf("Len = %d, want %d", q.Len(), next-popped)
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

// TestHotpathAllocFree gates the queue at 0 allocs/op once the ring has
// grown to the loop's high-water mark.
func TestHotpathAllocFree(t *testing.T) {
	var q Queue[int]
	cycle := func() {
		for i := 0; i < 20; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			_ = q.Front()
			_ = q.at(q.Len() - 1)
			q.Pop()
		}
	}
	hotgate.Check(t, ".", map[string]func(){
		"Queue.Len":   cycle,
		"Queue.at":    cycle,
		"Queue.Front": cycle,
		"Queue.Push":  cycle,
		"Queue.Pop":   cycle,
	})
}
