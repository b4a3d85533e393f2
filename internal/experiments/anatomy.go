package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// LatencyAnatomy decomposes an idle HERD GET's single round trip into
// its hardware stages: the request's client-to-server leg (PIO + NIC +
// wire + DMA into the request region), the server CPU's detection and
// service, and the response's server-to-client leg (SEND + wire + RECV
// delivery). It substantiates the paper's latency argument — the network
// legs dominate and there is exactly one round trip to pay.
//
// The decomposition is read off the request-lifecycle trace spans the
// stack records (package telemetry): every span with a "req." prefix is
// the request leg, the "cpu" span is the server stage, and the "resp."
// spans are the response leg. Because the spans of one trace partition
// [issue, response] with no gaps, the three stages sum exactly to the
// measured round-trip time.
func LatencyAnatomy(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "anatomy",
		Title:   fmt.Sprintf("Anatomy of an idle HERD GET (48 B item) — %s", spec.Name),
		Columns: []string{"stage", "mean_us", "share"},
	}

	cl := cluster.New(spec, 2, 1)
	// Trace every operation. Reuse the ambient sink if it already traces
	// (so the spans also land in any -trace output); otherwise attach a
	// local tracer, keeping whatever metrics registry is in effect.
	sink := cl.Telemetry()
	if !sink.Tracing() {
		local := &telemetry.Sink{Tracer: telemetry.NewTracer()}
		if sink != nil {
			local.Registry = sink.Registry
			local.PerQP = sink.PerQP
		}
		sink = local
		cl.SetTelemetry(sink)
	}
	tracer := sink.Tracer

	cfg := core.DefaultConfig()
	cfg.NS = 1
	cfg.MaxClients = 1
	cfg.Mica = mica.Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20}
	srv, err := core.NewServer(cl.Machine(0), cfg)
	if err != nil {
		panic(err)
	}
	c, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		panic(err)
	}
	key := kv.FromUint64(1)
	if err := srv.Preload(key, make([]byte, 32)); err != nil {
		panic(err)
	}

	// Only spans recorded from here on belong to this experiment.
	checkpoint := tracer.SpanCount()

	reps := 200
	n := 0
	var next func()
	next = func() {
		if n >= reps {
			return
		}
		c.Get(key, func(r core.Result) {
			n++
			// A small gap keeps each measurement isolated.
			cl.Eng.After(sim.Microsecond, next)
		})
	}
	next()
	cl.Eng.Run()

	// Aggregate the per-operation traces into the three stages. Spans
	// arrive grouped by completion, but group explicitly by trace ID so
	// interleaved traces would also decompose correctly.
	var reqLeg, serverStage, respLeg, total sim.Time
	byTrace := make(map[uint64][]telemetry.Span)
	var order []uint64
	for _, s := range tracer.SpansSince(checkpoint) {
		if _, seen := byTrace[s.TraceID]; !seen {
			order = append(order, s.TraceID)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	for _, id := range order {
		spans := byTrace[id]
		for _, s := range spans {
			switch {
			case s.Name == "cpu":
				serverStage += s.Duration()
			case len(s.Name) > 5 && s.Name[:5] == "resp.":
				respLeg += s.Duration()
			default: // "req." spans
				reqLeg += s.Duration()
			}
		}
		total += spans[len(spans)-1].End - spans[0].Start
	}

	rep := newReport("anatomy", spec)
	m := rep.Arm("idle_get")
	mean := func(v sim.Time) float64 { return v.Microseconds() / float64(n) }
	share := func(v sim.Time) string {
		return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(total))
	}
	t.AddRow("request leg (PIO+NIC+wire+DMA)", m.us("request_leg_us", mean(reqLeg)), share(reqLeg))
	t.AddRow("server CPU (poll+MICA+post)", m.us("server_cpu_us", mean(serverStage)), share(serverStage))
	t.AddRow("response leg (SEND+wire+RECV)", m.us("response_leg_us", mean(respLeg)), share(respLeg))
	t.AddRow("total", m.us("total_us", mean(total)), "100%")
	t.AddNote("one network round trip per operation; READ-based designs pay the legs 2.6x (Pilaf) or 2x (FaRM-VAR)")
	return t, rep
}
