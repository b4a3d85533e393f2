package mux

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/telemetry"
)

func smallConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NS = 4
	cfg.MaxClients = 8
	cfg.Window = 4
	cfg.Mica = mica.Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20}
	return cfg
}

// fakeClient is a scripted PoolClient: it accepts ops up to its window,
// records issue order, and resolves completions only when released —
// letting tests freeze the pool in any state.
type fakeClient struct {
	window   int
	inflight int
	reject   bool // fail the next op synchronously
	order    []kv.Key
	pending  []func()
	// onAccept, when set, sees every op handed to the client; ok is
	// false for a synchronous rejection.
	onAccept func(key kv.Key, ok bool)
}

func (f *fakeClient) accept(key kv.Key, isGet bool, cb func(kv.Result)) error {
	if f.onAccept != nil {
		f.onAccept(key, !f.reject)
	}
	if f.reject {
		f.reject = false
		return fmt.Errorf("fake: rejected")
	}
	f.inflight++
	f.order = append(f.order, key)
	f.pending = append(f.pending, func() {
		f.inflight--
		cb(kv.Result{Key: key, IsGet: isGet, Status: kv.StatusHit})
	})
	return nil
}

func (f *fakeClient) Get(key kv.Key, cb func(kv.Result)) error { return f.accept(key, true, cb) }
func (f *fakeClient) Put(key kv.Key, v []byte, cb func(kv.Result)) error {
	return f.accept(key, false, cb)
}
func (f *fakeClient) Inflight() int { return f.inflight }
func (f *fakeClient) Window() int   { return f.window }

// release resolves the oldest unresolved op.
func (f *fakeClient) release() { f.releaseAt(0) }

// releaseAt resolves the i-th oldest unresolved op.
func (f *fakeClient) releaseAt(i int) {
	done := f.pending[i]
	f.pending = append(f.pending[:i], f.pending[i+1:]...)
	done()
}

func newFakeEndpoint(t *testing.T, f *fakeClient, cfg Config) *Endpoint {
	t.Helper()
	cl := cluster.New(cluster.Apt(), 1, 1)
	ep, err := New(cl.Machine(0), []PoolClient{f}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// TestMuxDemuxRoundTrip runs many channels over a 2-QP pool against a
// real HERD server and checks every response lands on the channel that
// submitted it, with the right value.
func TestMuxDemuxRoundTrip(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 2, 1)
	srv, err := core.NewServer(cl.Machine(0), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Connect(srv, cl.Machine(1), Config{QPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ep.PoolSize() != 2 {
		t.Fatalf("pool size = %d, want 2", ep.PoolSize())
	}

	const nChans, nOps = 6, 4
	chans := make([]*Channel, nChans)
	for i := range chans {
		if chans[i], err = ep.OpenChannel(); err != nil {
			t.Fatal(err)
		}
		if chans[i].ID() != i {
			t.Fatalf("channel %d has vcid %d", i, chans[i].ID())
		}
	}

	// Each channel writes then reads its own keys; values encode the
	// owning vcid so a misrouted response is detectable. Ops complete
	// out of submission order across the two pool QPs, so results are
	// indexed by op, not appended in arrival order.
	got := make([][]kv.Result, nChans)
	served := make([]int, nChans)
	for i, ch := range chans {
		i, ch := i, ch
		got[i] = make([]kv.Result, nOps)
		for j := 0; j < nOps; j++ {
			j := j
			key := kv.FromUint64(uint64(i*100 + j + 1))
			val := []byte(fmt.Sprintf("vcid-%d-op-%d", i, j))
			err := ch.Put(key, val, func(r kv.Result) {
				if r.Err == nil {
					served[i]++
				}
				ch.Get(key, func(r kv.Result) {
					if r.Err == nil {
						served[i]++
					}
					got[i][j] = r
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.Eng.Run()

	for i := range chans {
		for j, r := range got[i] {
			want := []byte(fmt.Sprintf("vcid-%d-op-%d", i, j))
			if r.Status != kv.StatusHit || !bytes.Equal(r.Value, want) {
				t.Fatalf("channel %d op %d demuxed wrong: %q (status %v)", i, j, r.Value, r.Status)
			}
			if r.Latency <= 0 {
				t.Fatalf("channel %d op %d has non-positive latency %v", i, j, r.Latency)
			}
		}
		if served[i] != 2*nOps || chans[i].Queued() != 0 {
			t.Fatalf("channel %d accounting: served=%d queued=%d", i, served[i], chans[i].Queued())
		}
	}
	if ep.Queued() != 0 {
		t.Fatalf("endpoint accounting: queued=%d", ep.Queued())
	}
}

// TestMuxFairRoundRobin backlogs three channels against a frozen pool,
// then drains one completion at a time: the issue order must interleave
// so no channel ever runs more than one op ahead of another.
func TestMuxFairRoundRobin(t *testing.T) {
	f := &fakeClient{window: 0} // frozen: everything queues at the channels
	ep := newFakeEndpoint(t, f, Config{QPs: 1, ChannelWindow: 8})

	const nChans, nOps = 3, 9
	owner := map[kv.Key]int{}
	for i := 0; i < nChans; i++ {
		ch, err := ep.OpenChannel()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < nOps; j++ {
			key := kv.FromUint64(uint64(i*1000 + j + 1))
			owner[key] = i
			if err := ch.Get(key, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(f.order) != 0 || ep.Queued() != nChans*nOps {
		t.Fatalf("frozen pool issued %d, queued %d", len(f.order), ep.Queued())
	}
	f.window = 1
	ep.pump()
	for len(f.pending) > 0 {
		f.release()
	}

	if len(f.order) != nChans*nOps {
		t.Fatalf("issued %d ops, want %d", len(f.order), nChans*nOps)
	}
	counts := make([]int, nChans)
	for _, key := range f.order {
		counts[owner[key]]++
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("unfair issue order: prefix counts %v", counts)
		}
	}
	for i, c := range counts {
		if c != nOps {
			t.Fatalf("channel %d issued %d ops total, want %d", i, c, nOps)
		}
	}
}

// TestMuxChannelWindowFlowControl pins the per-channel cap: a channel
// never has more than ChannelWindow ops outstanding on the pool, excess
// queues at the endpoint, and the stall/resume accounting tracks it.
func TestMuxChannelWindowFlowControl(t *testing.T) {
	f := &fakeClient{window: 64}
	ep := newFakeEndpoint(t, f, Config{QPs: 1, ChannelWindow: 2})
	ch, err := ep.OpenChannel()
	if err != nil {
		t.Fatal(err)
	}

	const nOps = 6
	done := 0
	for j := 0; j < nOps; j++ {
		key := kv.FromUint64(uint64(j + 1))
		if err := ch.Get(key, func(kv.Result) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if f.inflight != 2 {
		t.Fatalf("pool sees %d outstanding, want ChannelWindow=2", f.inflight)
	}
	if ch.Queued() != 4 || ep.Queued() != 4 {
		t.Fatalf("backlog = %d/%d, want 4/4", ch.Queued(), ep.Queued())
	}
	if !ch.Stalled() {
		t.Fatal("channel with backlog not marked stalled")
	}
	for i := 0; i < nOps; i++ {
		f.release()
		if f.inflight > 2 {
			t.Fatalf("window violated after release %d: %d outstanding", i, f.inflight)
		}
	}
	if done != nOps || ch.Queued() != 0 || f.inflight != 0 || ch.Stalled() {
		t.Fatalf("after drain: done=%d queued=%d inflight=%d stalled=%v", done, ch.Queued(), f.inflight, ch.Stalled())
	}
}

// TestMuxComposesWithShrunkWindow models core's AIMD controller
// shrinking a pooled client mid-flight: the endpoint must respect the
// client's *current* effective window, holding backlog at the channels
// instead of over-issuing.
func TestMuxComposesWithShrunkWindow(t *testing.T) {
	f := &fakeClient{window: 4}
	ep := newFakeEndpoint(t, f, Config{QPs: 1, ChannelWindow: 8})
	ch, err := ep.OpenChannel()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		if err := ch.Get(kv.FromUint64(uint64(j+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.inflight != 4 || ch.Queued() != 2 {
		t.Fatalf("before shrink: inflight=%d queued=%d, want 4/2", f.inflight, ch.Queued())
	}

	f.window = 1 // AIMD multiplicative decrease under busy pushback
	f.release()
	if f.inflight != 3 || ch.Queued() != 2 {
		// 3 outstanding >= window 1: nothing new may issue.
		t.Fatalf("after shrink+release: inflight=%d queued=%d, want 3/2", f.inflight, ch.Queued())
	}
	f.release()
	f.release()
	if f.inflight != 1 || ch.Queued() != 2 {
		// Still one op from the original burst in flight == window 1.
		t.Fatalf("draining: inflight=%d queued=%d, want 1/2", f.inflight, ch.Queued())
	}
	f.release() // frees the pool; next op issues on the completion pump
	if f.inflight != 1 || ch.Queued() != 1 {
		t.Fatalf("post-drain issue: inflight=%d queued=%d, want 1/1", f.inflight, ch.Queued())
	}
}

// TestMuxValidationAndLimits covers channel-level validation and the
// endpoint's configuration guard rails.
func TestMuxValidationAndLimits(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 1, 1)
	if _, err := New(cl.Machine(0), nil, Config{}); err == nil {
		t.Fatal("empty pool accepted")
	}

	def := DefaultConfig()
	if def.QPs != 2 || def.ChannelWindow != 4 {
		t.Fatalf("defaults = %+v", def)
	}

	f := &fakeClient{window: 4}
	ep := newFakeEndpoint(t, f, Config{})
	if ep.Config() != def {
		t.Fatalf("withDefaults not applied: %+v", ep.Config())
	}
	ch, err := ep.OpenChannel()
	if err != nil {
		t.Fatal(err)
	}
	var zero kv.Key
	if err := ch.Get(zero, nil); err != mica.ErrZeroKey {
		t.Fatalf("zero-key GET: %v", err)
	}
	if err := ch.Put(zero, []byte("x"), nil); err != mica.ErrZeroKey {
		t.Fatalf("zero-key PUT: %v", err)
	}
	if err := ch.Put(kv.FromUint64(1), nil, nil); err == nil {
		t.Fatal("empty PUT value accepted")
	}
	if err := ch.Put(kv.FromUint64(1), make([]byte, mica.MaxValueSize+1), nil); err != mica.ErrValueTooLarge {
		t.Fatalf("oversize PUT: %v", err)
	}
	if ch.Queued() != 0 || len(f.order) != 0 {
		t.Fatal("rejected ops leaked into accounting")
	}
}

// TestMuxSyncRejection checks that a pooled client rejecting an op
// synchronously resolves it as failed without unbalancing the channel.
func TestMuxSyncRejection(t *testing.T) {
	f := &fakeClient{window: 4, reject: true}
	ep := newFakeEndpoint(t, f, Config{})
	ch, err := ep.OpenChannel()
	if err != nil {
		t.Fatal(err)
	}
	var res kv.Result
	runs := 0
	if err := ch.Get(kv.FromUint64(1), func(r kv.Result) { res = r; runs++ }); err != nil {
		t.Fatal(err)
	}
	if runs != 1 || res.Err == nil || res.Status != kv.StatusTimeout {
		t.Fatalf("rejected op resolved %d times, last as %+v", runs, res)
	}
	if ch.Queued() != 0 || f.inflight != 0 {
		t.Fatalf("accounting after rejection: queued=%d inflight=%d", ch.Queued(), f.inflight)
	}
	// The channel keeps working afterwards.
	if err := ch.Get(kv.FromUint64(2), nil); err != nil {
		t.Fatal(err)
	}
	if f.inflight != 1 {
		t.Fatalf("follow-up op did not issue: inflight=%d", f.inflight)
	}
}

// TestMuxTelemetryAndTraceMarks checks the mux.* metric names from
// docs/OBSERVABILITY.md and the mux.stall / mux.resume trace marks a
// stalled op produces.
func TestMuxTelemetryAndTraceMarks(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 2, 1)
	sink := telemetry.New()
	sink.Tracer = telemetry.NewTracer()
	cl.SetTelemetry(sink)
	srv, err := core.NewServer(cl.Machine(0), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Connect(srv, cl.Machine(1), Config{QPs: 1, ChannelWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ep.OpenChannel()
	if err != nil {
		t.Fatal(err)
	}
	key := kv.FromUint64(7)
	if err := srv.Preload(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Two back-to-back GETs on a window-1 channel: the second stalls.
	ch.Get(key, nil)
	ch.Get(key, nil)
	if got := sink.Registry.Gauge("mux.chan.stalled").Value(); got != 1 {
		t.Fatalf("mux.chan.stalled = %d mid-stall, want 1", got)
	}
	cl.Eng.Run()

	reg := sink.Registry
	if got := reg.Counter("mux.ops.issued").Value(); got != 2 {
		t.Fatalf("mux.ops.issued = %d, want 2", got)
	}
	if got := reg.Counter("mux.ops.completed").Value(); got != 2 {
		t.Fatalf("mux.ops.completed = %d, want 2", got)
	}
	if got := reg.Counter("mux.chan.stalls").Value(); got != 1 {
		t.Fatalf("mux.chan.stalls = %d, want 1", got)
	}
	if got := reg.Counter("mux.chan.resumes").Value(); got != 1 {
		t.Fatalf("mux.chan.resumes = %d, want 1", got)
	}
	if got := reg.Gauge("mux.chan.stalled").Value(); got != 0 {
		t.Fatalf("mux.chan.stalled = %d after drain, want 0", got)
	}
	if got := reg.Gauge("mux.channels").Value(); got != 1 {
		t.Fatalf("mux.channels = %d, want 1", got)
	}
	if got := reg.Gauge("mux.endpoints").Value(); got != 1 {
		t.Fatalf("mux.endpoints = %d, want 1", got)
	}
	if got := reg.Gauge("mux.qps").Value(); got != 1 {
		t.Fatalf("mux.qps = %d, want 1", got)
	}
	if got := reg.Histogram("mux.op.latency").Count(); got != 2 {
		t.Fatalf("mux.op.latency count = %d, want 2", got)
	}

	var sawStall, sawResume bool
	for _, s := range sink.Tracer.SpansSince(0) {
		if strings.HasSuffix(s.Name, "mux.stall") {
			sawStall = true
		}
		if strings.HasSuffix(s.Name, "mux.resume") {
			sawResume = true
		}
	}
	if !sawStall || !sawResume {
		t.Fatalf("trace marks missing: stall=%v resume=%v", sawStall, sawResume)
	}
}
