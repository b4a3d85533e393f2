package core

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/telemetry"
)

// TestGetEmitsFullSpanSequence asserts the request-lifecycle contract:
// one traced GET produces the complete ordered span sequence across both
// machines, the spans are contiguous, and their durations sum exactly to
// the latency the client reports.
func TestGetEmitsFullSpanSequence(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 2, 1)
	sink := telemetry.New()
	sink.Tracer = telemetry.NewTracer()
	cl.SetTelemetry(sink)

	cfg := smallConfig()
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	key := kv.FromUint64(7)
	if err := srv.Preload(key, []byte("traced value")); err != nil {
		t.Fatal(err)
	}

	checkpoint := sink.Tracer.SpanCount()
	var res Result
	c.Get(key, func(r Result) { res = r })
	cl.Eng.Run()
	if res.Status != kv.StatusHit {
		t.Fatalf("GET failed: %+v", res)
	}

	spans := sink.Tracer.SpansSince(checkpoint)
	want := []string{
		"req.pio", "req.nic", "req.wire", "req.dma",
		"cpu",
		"resp.pio", "resp.nic", "resp.wire", "resp.recv",
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans %v, want %d", len(spans), spanNames(spans), len(want))
	}
	for i, s := range spans {
		if s.Name != want[i] {
			t.Fatalf("span %d = %q, want %q (all: %v)", i, s.Name, want[i], spanNames(spans))
		}
		if s.Trace != "GET" {
			t.Fatalf("span %d traced as %q, want GET", i, s.Trace)
		}
		if i > 0 && s.Start != spans[i-1].End {
			t.Fatalf("gap between %q and %q", spans[i-1].Name, s.Name)
		}
	}
	if total := spans[len(spans)-1].End - spans[0].Start; total != res.Latency {
		t.Fatalf("span total %v != reported latency %v", total, res.Latency)
	}

	// The metrics side: the GET must have posted a request WRITE, a
	// response SEND, RECVs on both ends, and completed the client RECV.
	for _, name := range []string{
		"verbs.WRITE.posted", "verbs.SEND.posted",
		"verbs.RECV.posted", "verbs.RECV.completed",
	} {
		if sink.Registry.Counter(name).Value() == 0 {
			t.Errorf("counter %s is zero after a served GET", name)
		}
	}
	if sink.Registry.Histogram("herd.get.latency").Count() != 1 {
		t.Error("herd.get.latency did not record the GET")
	}
}

func spanNames(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestSendModeTracePropagates covers the SEND/SEND architecture, where
// the trace rides verbs.Completion.Trace instead of the request-region
// side channel: the sequence swaps the request "dma" landing for a
// "recv" consume but must still be contiguous and complete.
func TestSendModeTracePropagates(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 2, 1)
	sink := telemetry.New()
	sink.Tracer = telemetry.NewTracer()
	cl.SetTelemetry(sink)

	cfg := smallConfig()
	cfg.RequestPath = RequestSend
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	key := kv.FromUint64(9)
	if err := srv.Preload(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	checkpoint := sink.Tracer.SpanCount()
	var res Result
	c.Get(key, func(r Result) { res = r })
	cl.Eng.Run()
	if res.Status != kv.StatusHit {
		t.Fatalf("GET failed: %+v", res)
	}

	spans := sink.Tracer.SpansSince(checkpoint)
	want := []string{
		"req.pio", "req.nic", "req.wire", "req.recv",
		"cpu",
		"resp.pio", "resp.nic", "resp.wire", "resp.recv",
	}
	if len(spans) != len(want) {
		t.Fatalf("got spans %v, want %v", spanNames(spans), want)
	}
	for i, s := range spans {
		if s.Name != want[i] {
			t.Fatalf("span %d = %q, want %q", i, s.Name, want[i])
		}
	}
	if total := spans[len(spans)-1].End - spans[0].Start; total != res.Latency {
		t.Fatalf("span total %v != reported latency %v", total, res.Latency)
	}
}
