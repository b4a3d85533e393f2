package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// session is one built rig with its load generator running, past warmup.
type session struct {
	r     *rig
	d     *loadGen
	tel   *telemetry.Sink // the cluster's sink; nil when untraced
	setup phases
}

// newSession builds w with tel installed as the cluster's default sink,
// starts the load generator on the op streams of seed (at the given open-loop
// rate, or the workload's own when rate is 0) and runs the warmup.
func newSession(w *workloadSpec, seed int64, tel *telemetry.Sink, rate float64) (*session, error) {
	cluster.SetDefaultTelemetry(tel)
	defer cluster.SetDefaultTelemetry(nil)
	s := &session{tel: tel}
	r, err := w.build(&s.setup)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	t := time.Now()
	d := &loadGen{eng: r.cl.Eng}
	if r.fleet != nil && r.servers[0].WAL() != nil {
		d.lag = durableLag(r.fleet, r.cl.Eng)
	}
	if rate > 0 {
		r.rate = rate
	}
	if r.rate > 0 {
		d.startOpen(r.clients, r.rate, r.ops, seed)
	} else {
		d.startClosed(r.clients, r.window, r.ops, seed)
	}
	r.cl.Eng.RunFor(w.warmup)
	s.setup.warmup = lap(&t)
	s.r, s.d = r, d
	return s, nil
}

// window is one measured stretch of virtual time.
type window struct {
	length     sim.Time
	tally      tally
	start, end counters
	// nsPerOp is the host wall time per resolved op of each chunk of
	// the window; host metrics report its median, which a burst of
	// noise from other processes moves less than a mean.
	nsPerOp    []float64
	wallNs     float64
	mallocs    uint64
	backlogMid uint64 // ops issued but unresolved at mid-window
	backlogEnd uint64
}

func (w *window) ops() uint64 { return w.tally.gets + w.tally.puts }

// measure runs the next length of virtual time in chunks equal slices,
// recording what resolved and the public counters at both ends.
func (s *session) measure(length sim.Time, chunks int) *window {
	eng, d := s.r.cl.Eng, s.d
	w := &window{length: length}
	d.win = tally{}
	w.start = s.snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0, wall := eng.Now(), time.Now()
	d.measuring = true
	for i := 1; i <= chunks; i++ {
		before, t := d.win.gets+d.win.puts, time.Now()
		eng.RunUntil(t0 + length*sim.Time(i)/sim.Time(chunks))
		if n := d.win.gets + d.win.puts - before; n > 0 {
			w.nsPerOp = append(w.nsPerOp, float64(time.Since(t).Nanoseconds())/float64(n))
		}
		if i == chunks/2 {
			w.backlogMid = d.issued - d.resolved
		}
	}
	d.measuring = false
	w.wallNs = float64(time.Since(wall).Nanoseconds())
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - mallocs
	w.backlogEnd = d.issued - d.resolved
	w.end = s.snapshot()
	w.tally = d.win
	return w
}

// counters is a snapshot of every public counter the per-layer metrics
// are computed from. Resource busy times are utilization x now, per
// server machine (or core, or WAL device).
type counters struct {
	at                                     sim.Time
	events                                 uint64
	pio, toHost, fromHost, pu, egress, ing []float64
	cores, walBusy                         []float64
	recvHit, recvMiss, sendHit, sendMiss   uint64
	ctxEvicts                              uint64
	sent                                   uint64
	srvGets, srvHits, srvPuts              uint64
	inline, nonInline                      uint64
	walAppends, walFlushes, walSnaps       uint64
	repairs, partial, reroutes, widened    uint64
	fleetGets, fleetCalls                  uint64
	fleetTime                              sim.Time
	cache                                  map[string]uint64 // near-cache sink counters
	reg                                    map[string]uint64 // traced registry counters
	hist                                   map[string][2]float64
}

// Names read from the near-cache sink and, on a traced run, from the
// cluster's registry.
var (
	cacheCounters = []string{"cache.hits", "cache.misses", "cache.herd.waits", "cache.lease.expired"}
	regCounters   = []string{
		"verbs.WRITE.posted", "verbs.SEND.posted", "verbs.RECV.posted",
		"verbs.payload.inlined", "verbs.payload.dma",
		"pcie.pio.writes", "pcie.dma.nonposted.reads", "herd.retries", "mux.chan.stalls",
	}
	regHists = []string{"herd.get.latency", "herd.put.latency", "mux.op.latency"}
)

func (s *session) snapshot() counters {
	r := s.r
	now := r.cl.Eng.Now()
	busy := func(util float64) float64 { return util * float64(now) }
	c := counters{at: now, events: r.cl.Eng.Processed(), sent: r.cl.Net.Sent()}
	for _, m := range r.serverMachines {
		n := m.Verbs.NIC()
		c.pio = append(c.pio, busy(m.Bus.PIOUtilization()))
		c.toHost = append(c.toHost, busy(m.Bus.ToHostUtilization()))
		c.fromHost = append(c.fromHost, busy(m.Bus.FromHostUtilization()))
		c.pu = append(c.pu, busy(n.PUUtilization()))
		c.egress = append(c.egress, busy(r.cl.Net.EgressUtilization(m.Verbs.Node())))
		c.ing = append(c.ing, busy(r.cl.Net.IngressUtilization(m.Verbs.Node())))
		recv, send := n.RecvCtxCache(), n.SendCtxCache()
		c.recvHit, c.recvMiss = c.recvHit+recv.Hits(), c.recvMiss+recv.Misses()
		c.sendHit, c.sendMiss = c.sendHit+send.Hits(), c.sendMiss+send.Misses()
		c.ctxEvicts += recv.Evictions() + send.Evictions()
	}
	for i, srv := range r.servers {
		for p := 0; p < srv.Config().NS; p++ {
			c.cores = append(c.cores, float64(r.serverMachines[i].CPU.Core(p).BusyTime()))
		}
		g, h, p := srv.Stats()
		c.srvGets, c.srvHits, c.srvPuts = c.srvGets+g, c.srvHits+h, c.srvPuts+p
		in, out := srv.InlineStats()
		c.inline, c.nonInline = c.inline+in, c.nonInline+out
		if l := srv.WAL(); l != nil {
			c.walBusy = append(c.walBusy, busy(l.Utilization()))
			c.walAppends += l.Appends()
			c.walFlushes += l.Flushes()
			c.walSnaps += l.Snapshots()
		}
	}
	for _, fc := range r.fleetClients {
		c.repairs += fc.RepairsIssued()
		c.partial += fc.PartialWrites()
		c.reroutes += fc.Reroutes()
		c.widened += fc.HotWidened()
	}
	for _, t := range r.fleetCalls {
		c.fleetGets += t.gets
		c.fleetCalls += t.calls
		c.fleetTime += t.total
	}
	if r.cacheTel != nil {
		c.cache = make(map[string]uint64)
		for _, name := range cacheCounters {
			c.cache[name] = r.cacheTel.Counter(name).Value()
		}
	}
	if s.tel != nil {
		c.reg = make(map[string]uint64)
		for _, name := range regCounters {
			c.reg[name] = s.tel.Counter(name).Value()
		}
		c.hist = make(map[string][2]float64)
		for _, name := range regHists {
			h := s.tel.Histogram(name)
			c.hist[name] = [2]float64{float64(h.Count()), float64(h.Sum())}
		}
	}
	return c
}

// metric is one reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run. Modeled latencies are virtual time; host_* are the
// simulator's own cost. Host wall time and peak RSS are per-layer
// metrics instead: on a shared host they drift by more than any useful
// bound between runs, while allocations and the live heap repeat.
var endToEnd = []metric{
	{"goodput_mops", "Mops"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"get_p999_us", "us"},
	{"put_p50_us", "us"},
	{"put_p99_us", "us"},
	{"host_allocs_per_op", "count"},
	{"host_heap_mb", "MB"},
	{"setup_s", "s"},
}

// traceStages are the core request legs a traced GET or PUT decomposes
// into (docs/OBSERVABILITY.md); wal.flush appears only under sync
// durability.
var traceStages = []string{
	"req.pio", "req.nic", "req.wire", "req.dma", "cpu",
	"resp.pio", "resp.nic", "resp.wire", "resp.recv", "wal.flush",
}

// perLayer are the per-layer metrics a traced run reports. A metric of
// a layer the workload bypasses reads 0.
var perLayer = append([]metric{
	{"host.ns_per_op", "ns"},
	{"host.peak_rss_mb", "MB"},
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"setup.cluster_s", "s"},
	{"setup.preload_s", "s"},
	{"setup.connect_s", "s"},
	{"setup.warmup_s", "s"},
	{"pcie.pio_util", "ratio"},
	{"pcie.dma_to_host_util", "ratio"},
	{"pcie.dma_from_host_util", "ratio"},
	{"pcie.pio_writes_per_op", "count"},
	{"pcie.dma_reads_per_op", "count"},
	{"nic.pu_util", "ratio"},
	{"nic.recv_ctx_hit", "ratio"},
	{"nic.send_ctx_hit", "ratio"},
	{"nic.ctx_evicts_per_op", "count"},
	{"wire.packets_per_op", "count"},
	{"wire.server_egress_util", "ratio"},
	{"wire.server_ingress_util", "ratio"},
	{"verbs.WRITE.posted_per_op", "count"},
	{"verbs.SEND.posted_per_op", "count"},
	{"verbs.RECV.posted_per_op", "count"},
	{"verbs.inline_frac", "ratio"},
	{"server.core_util_max", "ratio"},
	{"server.core_util_mean", "ratio"},
	{"core.inline_resp_frac", "ratio"},
	{"core.retries_per_op", "count"},
	{"core.server_gets_per_get", "count"},
	{"core.server_puts_per_put", "count"},
	{"mica.get_hit_rate", "ratio"},
	{"wal.flushes_per_ms", "1/ms"},
	{"wal.records_per_flush", "count"},
	{"wal.device_util", "ratio"},
	{"wal.snapshots", "count"},
	{"wal.device_bytes_per_user_byte", "ratio"},
	{"wal.durable_lag_p99_us", "us"},
	{"fleet.repairs_per_op", "count"},
	{"fleet.partial_writes", "count"},
	{"fleet.reroutes", "count"},
	{"fleet.hot_widened_frac", "ratio"},
	{"fleet.added_us", "us"},
	{"cache.hit_rate", "ratio"},
	{"cache.herd_wait_frac", "ratio"},
	{"cache.origin_gets_per_get", "ratio"},
	{"cache.lease_expired_frac", "ratio"},
	{"mux.added_us", "us"},
	{"mux.stalls_per_op", "count"},
	{"mux.queue_depth_hwm", "count"},
	{"mux.slo_mops", "Mops"},
}, traceMetrics()...)

func traceMetrics() []metric {
	var ms []metric
	for _, kind := range []string{"GET", "PUT"} {
		for _, st := range traceStages {
			ms = append(ms, metric{"trace." + kind + "." + st + "_us", "us"})
		}
	}
	return append(ms, metric{"trace.overhead_frac", "ratio"})
}

// ratio returns a/b, or 0 when b is 0 (the layer saw no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentileUS returns the nearest-rank q-quantile of lat in µs,
// sorting lat in place.
func percentileUS(lat []sim.Time, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	i := int(math.Ceil(q*float64(len(lat)))) - 1
	return lat[max(i, 0)].Microseconds()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// modeled returns the end-to-end metrics computed from simulated time
// alone; they repeat exactly at a fixed seed.
func modeled(w *window) map[string]float64 {
	t := &w.tally
	return map[string]float64{
		"goodput_mops": float64(t.served) / w.length.Seconds() / 1e6,
		"get_p50_us":   percentileUS(t.getLat, 0.50),
		"get_p99_us":   percentileUS(t.getLat, 0.99),
		"get_p999_us":  percentileUS(t.getLat, 0.999),
		"put_p50_us":   percentileUS(t.putLat, 0.50),
		"put_p99_us":   percentileUS(t.putLat, 0.99),
	}
}

// endToEndValues adds the host metrics to the modeled ones; heapMB is
// the live heap after the window.
func endToEndValues(w *window, setups []phases, heapMB float64) map[string]float64 {
	v := modeled(w)
	v["host_allocs_per_op"] = ratio(float64(w.mallocs), float64(w.ops()))
	v["host_heap_mb"] = heapMB
	v["setup_s"] = medianPhase(setups, phases.total)
	return v
}

func medianPhase(setups []phases, f func(phases) float64) float64 {
	xs := make([]float64, len(setups))
	for i, p := range setups {
		xs[i] = f(p)
	}
	return median(xs)
}

// perLayerValues computes every per-layer metric: the counter-based
// ones over the untraced measured window w, the registry and span
// based ones over the traced window tw (whose spans are given). rssMB
// is the peak RSS up to the end of w.
func perLayerValues(w, tw *window, spans []telemetry.Span, setups []phases, slo, rssMB float64) map[string]float64 {
	a, b := &w.start, &w.end
	ops := float64(w.ops())
	dt := float64(b.at - a.at)
	events := float64(b.events - a.events)
	v := map[string]float64{
		"host.ns_per_op":       median(w.nsPerOp),
		"host.peak_rss_mb":     rssMB,
		"sim.events_per_op":    ratio(events, ops),
		"sim.ns_per_event":     ratio(w.wallNs, events),
		"sim.allocs_per_event": ratio(float64(w.mallocs), events),
		"setup.cluster_s":      medianPhase(setups, func(p phases) float64 { return p.cluster }),
		"setup.preload_s":      medianPhase(setups, func(p phases) float64 { return p.preload }),
		"setup.connect_s":      medianPhase(setups, func(p phases) float64 { return p.connect }),
		"setup.warmup_s":       medianPhase(setups, func(p phases) float64 { return p.warmup }),

		"pcie.pio_util":            maxUtil(a.pio, b.pio, dt),
		"pcie.dma_to_host_util":    maxUtil(a.toHost, b.toHost, dt),
		"pcie.dma_from_host_util":  maxUtil(a.fromHost, b.fromHost, dt),
		"nic.pu_util":              maxUtil(a.pu, b.pu, dt),
		"nic.recv_ctx_hit":         ratio(float64(b.recvHit-a.recvHit), float64(b.recvHit-a.recvHit+b.recvMiss-a.recvMiss)),
		"nic.send_ctx_hit":         ratio(float64(b.sendHit-a.sendHit), float64(b.sendHit-a.sendHit+b.sendMiss-a.sendMiss)),
		"wire.packets_per_op":      ratio(float64(b.sent-a.sent), ops),
		"wire.server_egress_util":  maxUtil(a.egress, b.egress, dt),
		"wire.server_ingress_util": maxUtil(a.ing, b.ing, dt),
		"server.core_util_max":     maxUtil(a.cores, b.cores, dt),
		"server.core_util_mean":    meanUtil(a.cores, b.cores, dt),

		"core.inline_resp_frac":    ratio(float64(b.inline-a.inline), float64(b.inline-a.inline+b.nonInline-a.nonInline)),
		"core.server_gets_per_get": ratio(float64(b.srvGets-a.srvGets), float64(w.tally.gets)),
		"core.server_puts_per_put": ratio(float64(b.srvPuts-a.srvPuts), float64(w.tally.puts)),
		"mica.get_hit_rate":        ratio(float64(b.srvHits-a.srvHits), float64(b.srvGets-a.srvGets)),
		"nic.ctx_evicts_per_op":    ratio(float64(b.ctxEvicts-a.ctxEvicts), ops),

		"fleet.repairs_per_op":   ratio(float64(b.repairs-a.repairs), ops),
		"fleet.partial_writes":   float64(b.partial - a.partial),
		"fleet.reroutes":         float64(b.reroutes - a.reroutes),
		"fleet.hot_widened_frac": ratio(float64(b.widened-a.widened), float64(b.fleetGets-a.fleetGets)),
		"mux.slo_mops":           slo,
	}

	flushes := float64(b.walFlushes - a.walFlushes)
	snaps := float64(b.walSnaps - a.walSnaps)
	var walBusy float64
	for i := range a.walBusy {
		walBusy += b.walBusy[i] - a.walBusy[i]
	}
	// Device time not spent on the fixed per-write persist latency moved
	// bytes at the device bandwidth.
	devBytes := (walBusy - (flushes+snaps)*float64(walConfig.PersistLatency)) / float64(sim.Second) * walConfig.BytesPerSec
	v["wal.flushes_per_ms"] = ratio(flushes, float64(len(a.walBusy))*float64(w.length)/float64(sim.Millisecond))
	v["wal.records_per_flush"] = ratio(float64(b.walAppends-a.walAppends), flushes)
	v["wal.device_util"] = meanUtil(a.walBusy, b.walBusy, dt)
	v["wal.snapshots"] = snaps
	v["wal.device_bytes_per_user_byte"] = ratio(devBytes, float64(len(w.tally.putLat)*(kv.KeySize+valueSize)))
	v["wal.durable_lag_p99_us"] = percentileUS(w.tally.lag, 0.99)

	if a.cache != nil {
		gets := float64(w.tally.gets)
		d := func(name string) float64 { return float64(b.cache[name] - a.cache[name]) }
		v["cache.hit_rate"] = ratio(d("cache.hits"), d("cache.hits")+d("cache.misses"))
		v["cache.herd_wait_frac"] = ratio(d("cache.herd.waits"), gets)
		v["cache.origin_gets_per_get"] = ratio(float64(b.fleetGets-a.fleetGets), gets)
		v["cache.lease_expired_frac"] = ratio(d("cache.lease.expired"), gets)
	}

	tracedValues(v, tw, spans)
	v["trace.overhead_frac"] = ratio(median(tw.nsPerOp), median(w.nsPerOp)) - 1
	return v
}

// tracedValues adds the metrics that need the traced run's registry or
// spans: per-op verb, PCIe and retry counts, the fleet and mux latency
// they add over the core legs, and the mean of each core leg.
func tracedValues(v map[string]float64, tw *window, spans []telemetry.Span) {
	a, b := &tw.start, &tw.end
	ops := float64(tw.ops())
	d := func(name string) float64 { return float64(b.reg[name] - a.reg[name]) }
	v["verbs.WRITE.posted_per_op"] = ratio(d("verbs.WRITE.posted"), ops)
	v["verbs.SEND.posted_per_op"] = ratio(d("verbs.SEND.posted"), ops)
	v["verbs.RECV.posted_per_op"] = ratio(d("verbs.RECV.posted"), ops)
	v["verbs.inline_frac"] = ratio(d("verbs.payload.inlined"), d("verbs.payload.inlined")+d("verbs.payload.dma"))
	v["pcie.pio_writes_per_op"] = ratio(d("pcie.pio.writes"), ops)
	v["pcie.dma_reads_per_op"] = ratio(d("pcie.dma.nonposted.reads"), ops)
	v["core.retries_per_op"] = ratio(d("herd.retries"), ops)
	v["mux.stalls_per_op"] = ratio(d("mux.chan.stalls"), ops)

	// meanUS is a histogram's mean over the traced window, in µs.
	meanUS := func(names ...string) float64 {
		var n, sum float64
		for _, name := range names {
			n += b.hist[name][0] - a.hist[name][0]
			sum += b.hist[name][1] - a.hist[name][1]
		}
		return ratio(sum, n) / float64(sim.Microsecond)
	}
	herd := meanUS("herd.get.latency", "herd.put.latency")
	if calls := float64(b.fleetCalls - a.fleetCalls); calls > 0 {
		v["fleet.added_us"] = float64(b.fleetTime-a.fleetTime)/calls/float64(sim.Microsecond) - herd
	}
	if mux := meanUS("mux.op.latency"); mux > 0 {
		v["mux.added_us"] = mux - herd
	}

	type acc struct {
		sum sim.Time
		n   int
	}
	stages := make(map[string]*acc)
	for _, s := range spans {
		key := s.Trace + "." + s.Name
		st := stages[key]
		if st == nil {
			st = &acc{}
			stages[key] = st
		}
		st.sum += s.Duration()
		st.n++
	}
	for _, kind := range []string{"GET", "PUT"} {
		for _, name := range traceStages {
			if st := stages[kind+"."+name]; st != nil {
				v["trace."+kind+"."+name+"_us"] = st.sum.Microseconds() / float64(st.n)
			}
		}
	}
}

// maxUtil is the largest per-resource utilization over the window
// between busy-time snapshots a and b, dt picoseconds apart.
func maxUtil(a, b []float64, dt float64) float64 {
	var m float64
	for i := range a {
		m = max(m, ratio(b[i]-a[i], dt))
	}
	return m
}

func meanUtil(a, b []float64, dt float64) float64 {
	var sum float64
	for i := range a {
		sum += ratio(b[i]-a[i], dt)
	}
	return ratio(sum, float64(len(a)))
}
