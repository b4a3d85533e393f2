package verbs

import (
	"testing"

	"herdkv/internal/wire"
)

// The ring keeps FIFO order across wraparound and growth, and zeroes
// every slot it pops.
func TestFIFOOrderAndRelease(t *testing.T) {
	var q fifo[*int]
	vals := make([]int, 100)
	next, popped := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < round%7+1; i++ {
			q.push(&vals[next%len(vals)])
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if got := q.pop(); got != &vals[popped%len(vals)] {
				t.Fatalf("pop %d returned the wrong element", popped)
			}
			popped++
		}
		if q.Len() != next-popped {
			t.Fatalf("Len = %d, want %d", q.Len(), next-popped)
		}
	}
	for q.Len() > 0 {
		q.pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

// A long post/complete loop on one QP — a RECV posted, a SEND into it,
// the completion consumed — settles at 0 allocs/op: the send and receive
// queues reuse their rings, and the verb's record its pooled storage.
func TestPostCompleteLoopSteadyStateAllocFree(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(4096)
	done := 0
	qb.RecvCQ().SetHandler(func(Completion) { done++ })
	wr := SendWR{Verb: SEND, Data: make([]byte, 32), Inline: true}
	loop := func() {
		for i := 0; i < 4; i++ {
			if err := qb.PostRecv(mr, 64*i, 64, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if err := qa.PostSend(wr); err != nil {
				t.Fatal(err)
			}
		}
		tb.eng.Run()
	}
	for i := 0; i < 1000; i++ {
		loop()
	}
	if allocs := testing.AllocsPerRun(1000, loop); allocs != 0 {
		t.Fatalf("steady-state post/complete loop: %.2f allocs/op, want 0", allocs)
	}
	if want := 4 * (1000 + 1001); done != want {
		t.Fatalf("%d RECV completions, want %d", done, want)
	}
}
