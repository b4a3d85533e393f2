package mux

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// transcript is the digest of one run: every issue and synchronous
// rejection as (channel id, pool index), and every completion as the
// channel it landed on.
type transcript struct {
	h      hash.Hash64
	word   [9]byte
	issues int
}

func (tr *transcript) note(tag byte, ch, pool int) {
	tr.word[0] = tag
	binary.LittleEndian.PutUint32(tr.word[1:], uint32(ch))
	binary.LittleEndian.PutUint32(tr.word[5:], uint32(pool))
	tr.h.Write(tr.word[:])
}

// channelKey encodes the submitting channel's id (plus a per-op
// sequence number) into the key, so a pool client can tell which
// channel an op came from.
func channelKey(ch int, seq uint32) kv.Key {
	var k kv.Key
	binary.LittleEndian.PutUint32(k[0:], uint32(ch)+1)
	binary.LittleEndian.PutUint32(k[4:], seq)
	return k
}

func keyChannel(k kv.Key) int { return int(binary.LittleEndian.Uint32(k[0:])) - 1 }

// runTranscript drives one seeded mixed workload through an endpoint:
// submissions on random channels (some resubmitting from their
// completion callback), out-of-order releases, pool windows that
// shrink and grow, synchronous rejections, and channels opened
// mid-run. It returns the digest and the number of issues.
func runTranscript(t *testing.T, seed int64, cfg Config, poolWindows []int, startChannels, maxChannels int) (uint64, int) {
	t.Helper()
	tr := &transcript{h: fnv.New64a()}
	pool := make([]PoolClient, len(poolWindows))
	clients := make([]*fakeClient, len(poolWindows))
	for i, w := range poolWindows {
		clients[i] = &fakeClient{window: w, onAccept: func(key kv.Key, ok bool) {
			tag := byte('r')
			if ok {
				tag = 'i'
				tr.issues++
			}
			tr.note(tag, keyChannel(key), i)
		}}
		pool[i] = clients[i]
	}
	cl := cluster.New(cluster.Apt(), 1, 1)
	ep, err := New(cl.Machine(0), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var chans []*Channel
	open := func() {
		ch, err := ep.OpenChannel()
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for len(chans) < startChannels {
		open()
	}
	rnd := sim.NewRand(seed)
	var seq uint32
	var submitted, resolved int
	var submit func(ch *Channel)
	submit = func(ch *Channel) {
		seq++
		key := channelKey(ch.id, seq)
		cb := func(r kv.Result) {
			resolved++
			tr.note('c', keyChannel(r.Key), 0)
			if rnd.Intn(4) == 0 {
				submit(ch)
			}
		}
		var err error
		switch rnd.Intn(8) {
		case 0, 1:
			err = ch.Put(key, []byte{1, 2, 3}, cb)
		default:
			err = ch.Get(key, cb)
		}
		if err != nil {
			t.Fatal(err)
		}
		submitted++
	}
	releaseOne := func() bool {
		var busy []*fakeClient
		for _, c := range clients {
			if len(c.pending) > 0 {
				busy = append(busy, c)
			}
		}
		if len(busy) == 0 {
			return false
		}
		c := busy[rnd.Intn(len(busy))]
		// Mostly in order, sometimes out of order.
		i := 0
		if rnd.Intn(3) == 0 {
			i = rnd.Intn(len(c.pending))
		}
		c.releaseAt(i)
		return true
	}
	for step := 0; step < 30000; step++ {
		// Alternate loading and draining phases, so the run spends time
		// both with the pool saturated and with every channel idle.
		load := 45
		if step/1500%2 == 1 {
			load = 15
		}
		switch p := rnd.Intn(100); {
		case p < load:
			// Bursts on one channel push it past its window.
			ch := chans[rnd.Intn(len(chans))]
			for n := 1 + rnd.Intn(3); n > 0; n-- {
				submit(ch)
			}
		case p < 88:
			releaseOne()
		case p < 91:
			if len(chans) < maxChannels {
				for n := 1 + rnd.Intn(5); n > 0; n-- {
					open()
				}
			}
		case p < 96:
			i := rnd.Intn(len(clients))
			clients[i].window = 1 + rnd.Intn(poolWindows[i])
		default:
			clients[rnd.Intn(len(clients))].reject = true
		}
	}
	// Drain: restore every window and stop rejecting, then release
	// until nothing is queued or outstanding.
	for i, c := range clients {
		c.window = poolWindows[i]
		c.reject = false
	}
	for releaseOne() {
	}
	if ep.queued > 0 {
		t.Fatalf("seed %d: %d ops queued with nothing in flight", seed, ep.queued)
	}
	if resolved != submitted {
		t.Fatalf("seed %d: %d of %d submitted ops resolved", seed, resolved, submitted)
	}
	if len(chans) <= startChannels/64*64+64 {
		t.Fatalf("seed %d: only %d channels opened; the run must cross a 64-channel word", seed, len(chans))
	}
	return tr.h.Sum64(), tr.issues
}

// TestIssueOrderTranscript pins the endpoint's issue order: the
// sequence of (channel id, pool index) hand-offs, synchronous
// rejections and completions under seeded mixed workloads. It covers
// channel windows 1 and 4, a 1-QP pool held in saturation, pool
// windows that shrink mid-run, pool clients that reject synchronously
// (the re-entrant complete→pump path), and channels opened mid-run at
// counts that are not multiples of 64. Any change to the round-robin
// cursor or the readiness test moves the digest.
func TestIssueOrderTranscript(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		cfg         Config
		poolWindows []int
		start, max  int
		digest      uint64
		issues      int
	}{
		{"window1", 1, Config{ChannelWindow: 1}, []int{4, 4, 2}, 37, 201, 0x862fe45cc707ab19, 22805},
		{"window4", 2, Config{ChannelWindow: 4}, []int{4, 4, 2}, 37, 201, 0x6c371020e15e2023, 22939},
		{"saturated", 3, Config{ChannelWindow: 4}, []int{2}, 63, 131, 0xa56a8362770f00a9, 22791},
		{"manyChannels", 4, Config{ChannelWindow: 2}, []int{8, 8}, 129, 397, 0xf98af509421b0f59, 22932},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, issues := runTranscript(t, tc.seed, tc.cfg, tc.poolWindows, tc.start, tc.max)
			if got != tc.digest || issues != tc.issues {
				t.Errorf("transcript digest %#x over %d issues, want %#x over %d", got, issues, tc.digest, tc.issues)
			}
		})
	}
}

// TestNextReadyMatchesScan checks the ready bitmap against the scan it
// replaces: after random changes to channel queues and outstanding
// counts, nextReady(from, n) must name the first channel a cyclic visit
// from `from` over the first n channels finds with queued ops and room
// under ChannelWindow. The endpoint spans several bitmap words, and n
// takes values that cut a word.
func TestNextReadyMatchesScan(t *testing.T) {
	const chans = 4*64 + 44
	ep := newFakeEndpoint(t, &fakeClient{window: 4}, Config{ChannelWindow: 2})
	for range chans {
		if _, err := ep.OpenChannel(); err != nil {
			t.Fatal(err)
		}
	}
	ready := func(ch *Channel) bool { return backlog(ch) > 0 && int(ch.outstanding) < ep.cfg.ChannelWindow }
	rnd := sim.NewRand(18)
	for step := 0; step < 4000; step++ {
		if step%200 == 0 {
			// Start over from every channel idle, so sparse bitmaps
			// with long idle runs are tested as well as dense ones.
			for _, ch := range ep.channels {
				for ch.head != nil {
					ch.pop()
				}
				ep.updateReady(ch)
			}
		}
		// Cluster the changes, so long idle runs and dense ready runs
		// both occur.
		base := rnd.Intn(chans)
		for range 1 + rnd.Intn(8) {
			ch := ep.channels[(base+rnd.Intn(40))%chans]
			switch rnd.Intn(4) {
			case 0:
				// A fresh op each time: an op links into one backlog.
				ch.push(new(chanOp))
			case 1:
				if ch.head != nil {
					ch.pop()
				}
			default:
				ch.outstanding = int32(rnd.Intn(ep.cfg.ChannelWindow + 1))
			}
			ep.updateReady(ch)
		}
		for range 4 {
			n := 1 + rnd.Intn(chans)
			from := rnd.Intn(n)
			want := -1
			for d := range n {
				if ready(ep.channels[(from+d)%n]) {
					want = (from + d) % n
					break
				}
			}
			if got := ep.nextReady(from, n); got != want {
				t.Fatalf("step %d: nextReady(%d, %d) = %d, scan finds %d", step, from, n, got, want)
			}
		}
	}
}
