package fault

import (
	"testing"

	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

// newNet builds a three-node fabric with no background loss.
func newNet(t *testing.T) (*sim.Engine, *wire.Network) {
	t.Helper()
	eng := sim.New()
	net := wire.NewNetwork(eng, wire.InfiniBand56())
	for id := wire.NodeID(0); id < 3; id++ {
		net.AddNode(id)
	}
	return eng, net
}

// inject binds script to net or fails the test.
func inject(t *testing.T, net *wire.Network, script string) *Injector {
	t.Helper()
	sched, err := ParseSchedule(script)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(net, sched, 7)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sendAt schedules a control packet src->dst at time at and returns a
// pointer that becomes true if it was delivered.
func sendAt(eng *sim.Engine, net *wire.Network, src, dst wire.NodeID, at sim.Time) *bool {
	delivered := new(bool)
	eng.At(at, func() {
		net.SendWire(src, dst, 64, func(sim.Time) { *delivered = true })
	})
	return delivered
}

func TestBlackoutDropsExactlyInWindow(t *testing.T) {
	eng, net := newNet(t)
	inject(t, net, "blackout link=1>0 from=1us until=2us")

	before := sendAt(eng, net, 1, 0, 500*sim.Nanosecond)
	atStart := sendAt(eng, net, 1, 0, 1*sim.Microsecond) // window is [from, until)
	inside := sendAt(eng, net, 1, 0, 1500*sim.Nanosecond)
	atEnd := sendAt(eng, net, 1, 0, 2*sim.Microsecond)
	after := sendAt(eng, net, 1, 0, 2500*sim.Nanosecond)
	reverse := sendAt(eng, net, 0, 1, 1500*sim.Nanosecond) // other direction untouched
	eng.Run()

	if !*before || !*atEnd || !*after {
		t.Fatalf("out-of-window packets dropped: before=%v atEnd=%v after=%v", *before, *atEnd, *after)
	}
	if *atStart || *inside {
		t.Fatalf("in-window packets delivered: atStart=%v inside=%v", *atStart, *inside)
	}
	if !*reverse {
		t.Fatal("blackout of 1>0 dropped traffic on 0>1")
	}
}

func TestBlackoutBothDirections(t *testing.T) {
	eng, net := newNet(t)
	inject(t, net, "blackout link=1>0 from=0 until=1ms both")
	fwd := sendAt(eng, net, 1, 0, 10*sim.Nanosecond)
	rev := sendAt(eng, net, 0, 1, 10*sim.Nanosecond)
	eng.Run()
	if *fwd || *rev {
		t.Fatalf("both-direction blackout leaked: fwd=%v rev=%v", *fwd, *rev)
	}
}

func TestPartitionAsymmetric(t *testing.T) {
	eng, net := newNet(t)
	inject(t, net, "partition a=1,2 b=0 from=0 until=1ms asym")

	aToB1 := sendAt(eng, net, 1, 0, 10*sim.Nanosecond)
	aToB2 := sendAt(eng, net, 2, 0, 10*sim.Nanosecond)
	bToA := sendAt(eng, net, 0, 1, 10*sim.Nanosecond)
	within := sendAt(eng, net, 1, 2, 10*sim.Nanosecond)
	eng.Run()

	if *aToB1 || *aToB2 {
		t.Fatal("A->B traffic crossed an asymmetric partition")
	}
	if !*bToA {
		t.Fatal("asym partition dropped B->A traffic")
	}
	if !*within {
		t.Fatal("partition dropped traffic inside set A")
	}
}

func TestPartitionSymmetric(t *testing.T) {
	eng, net := newNet(t)
	inject(t, net, "partition a=1 b=0 from=0 until=1ms")
	aToB := sendAt(eng, net, 1, 0, 10*sim.Nanosecond)
	bToA := sendAt(eng, net, 0, 1, 10*sim.Nanosecond)
	eng.Run()
	if *aToB || *bToA {
		t.Fatalf("symmetric partition leaked: aToB=%v bToA=%v", *aToB, *bToA)
	}
}

func TestCorruptDeliversDamagedDataPackets(t *testing.T) {
	eng, net := newNet(t)
	in := inject(t, net, "corrupt link=1>0 from=0 until=1ms rate=1")

	// Data-path packets arrive flagged corrupt; the application must
	// reject them.
	var got, corrupt bool
	eng.At(10*sim.Nanosecond, func() {
		net.SendData(1, 0, wire.UC, 128, func(d wire.Delivery) {
			got, corrupt = true, d.Corrupt
		})
	})
	// Control packets (hardware CRC semantics) are discarded instead.
	ctrl := sendAt(eng, net, 1, 0, 10*sim.Nanosecond)
	eng.Run()

	if !got || !corrupt {
		t.Fatalf("corrupted data packet: delivered=%v corrupt=%v (want delivered corrupt)", got, corrupt)
	}
	if *ctrl {
		t.Fatal("corrupted control packet was delivered")
	}
	if in.Corrupts() != 2 || net.Corrupted() != 2 {
		t.Fatalf("corruption counters: injector=%d wire=%d, want 2 each", in.Corrupts(), net.Corrupted())
	}
}

func TestLossIsSeededAndDeterministic(t *testing.T) {
	outcome := func() []bool {
		eng, net := newNet(t)
		inject(t, net, "loss from=0 until=1ms rate=0.5")
		res := make([]*bool, 40)
		for i := range res {
			res[i] = sendAt(eng, net, 1, 0, sim.Time(i+1)*sim.Microsecond/100)
		}
		eng.Run()
		out := make([]bool, len(res))
		for i, p := range res {
			out[i] = *p
		}
		return out
	}
	a, b := outcome(), outcome()
	delivered := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at packet %d", i)
		}
		if a[i] {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(a) {
		t.Fatalf("50%% loss delivered %d/%d packets", delivered, len(a))
	}
}

// recorder is a CrashTarget that logs crash/restart instants.
type recorder struct {
	eng      *sim.Engine
	crashes  []sim.Time
	restarts []sim.Time
}

func (r *recorder) Crash()   { r.crashes = append(r.crashes, r.eng.Now()) }
func (r *recorder) Restart() { r.restarts = append(r.restarts, r.eng.Now()) }

func TestCrashEventsFireAtScheduledInstants(t *testing.T) {
	eng, net := newNet(t)
	in := inject(t, net, `
		crash node=0 at=10us restart=20us
		crash node=2 at=5us
	`)
	r0, r2 := &recorder{eng: eng}, &recorder{eng: eng}
	in.SetCrashTarget(0, r0)
	in.SetCrashTarget(2, r2)
	in.Arm()
	eng.RunUntil(1 * sim.Millisecond)

	if len(r0.crashes) != 1 || r0.crashes[0] != 10*sim.Microsecond {
		t.Fatalf("node 0 crashes = %v", r0.crashes)
	}
	if len(r0.restarts) != 1 || r0.restarts[0] != 20*sim.Microsecond {
		t.Fatalf("node 0 restarts = %v", r0.restarts)
	}
	if len(r2.crashes) != 1 || len(r2.restarts) != 0 {
		t.Fatalf("node 2 crash/restart = %v/%v", r2.crashes, r2.restarts)
	}
	if in.Crashes() != 2 || in.Restarts() != 1 {
		t.Fatalf("injector counts: crashes=%d restarts=%d", in.Crashes(), in.Restarts())
	}
}

// flushRecorder is a recorder that also implements FlushCrasher.
type flushRecorder struct {
	recorder
	midFlush []sim.Time
}

func (r *flushRecorder) CrashMidFlush() { r.midFlush = append(r.midFlush, r.eng.Now()) }

func TestFlushCrashDispatchesMidFlush(t *testing.T) {
	eng, net := newNet(t)
	in := inject(t, net, `
		flushcrash node=0 at=10us restart=20us
		flushcrash node=2 at=5us
	`)
	// Node 0's target understands mid-flush crashes; node 2's is a plain
	// CrashTarget and must fall back to Crash.
	r0 := &flushRecorder{recorder: recorder{eng: eng}}
	r2 := &recorder{eng: eng}
	in.SetCrashTarget(0, r0)
	in.SetCrashTarget(2, r2)
	in.Arm()
	eng.RunUntil(1 * sim.Millisecond)

	if len(r0.midFlush) != 1 || r0.midFlush[0] != 10*sim.Microsecond {
		t.Fatalf("node 0 mid-flush crashes = %v", r0.midFlush)
	}
	if len(r0.crashes) != 0 {
		t.Fatalf("node 0 plain crashes = %v, want none", r0.crashes)
	}
	if len(r0.restarts) != 1 || r0.restarts[0] != 20*sim.Microsecond {
		t.Fatalf("node 0 restarts = %v", r0.restarts)
	}
	if len(r2.crashes) != 1 {
		t.Fatalf("node 2 fallback crash = %v", r2.crashes)
	}
	if in.Crashes() != 2 || in.Restarts() != 1 {
		t.Fatalf("injector counts: crashes=%d restarts=%d", in.Crashes(), in.Restarts())
	}
}

// TestCrashWithoutTargetIsSkipped: a crash event on a node with no
// registered target crashes nothing, so the injector counts no crash.
func TestCrashWithoutTargetIsSkipped(t *testing.T) {
	eng, net := newNet(t)
	in := inject(t, net, "crash node=1 at=1us")
	in.Arm()
	eng.RunUntil(1 * sim.Millisecond)
	if in.Crashes() != 0 {
		t.Fatalf("crashes = %d, want 0", in.Crashes())
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	bad := []Schedule{
		{Events: []Event{{Kind: Crash, At: 5, RestartAt: 3}}},
		{Events: []Event{{Kind: Loss, Rate: 1.5, From: 0, Until: 10}}},
		{Events: []Event{{Kind: Blackout, From: 10, Until: 10}}},
		{Events: []Event{{Kind: Partition, From: 0, Until: 10, A: []wire.NodeID{1}}}},
		{Events: []Event{{Kind: Kind(99), From: 0, Until: 10}}},
	}
	for i, s := range bad {
		s := s
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d validated", i)
		}
	}
}

func TestScheduleEnd(t *testing.T) {
	s, err := ParseSchedule(`
		loss from=0 until=30ms rate=0.05
		crash node=0 at=10ms restart=41ms
	`)
	if err != nil {
		t.Fatal(err)
	}
	if s.End() != 41*sim.Millisecond {
		t.Fatalf("End() = %v, want 41ms", s.End())
	}
}
