package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/nearcache"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/telemetry"
	"herdkv/internal/workload"
)

// hotkey experiment dimensions.
const (
	hotkeyShards    = 3
	hotkeyClients   = 12
	hotkeyKeys      = 4096
	hotkeyValueSize = 32
	hotkeyLeaseTTL  = 25 * sim.Microsecond
)

// Hotkey runs the paper's skewed workload (Zipf .99, 95% GET) against
// a replicated fleet twice: once with clients reading through plain
// fleet handles, once with every client behind a leased near cache.
// The skew concentrates reads on a few keys; the cached arm serves
// repeats locally inside the lease, so it must beat the uncached arm
// on goodput while sending the origin shards fewer GETs.
// The report is BENCH_hotkey.json.
func Hotkey(spec cluster.Spec) (*Table, *Report) {
	originGets := func(d *fleet.Deployment) uint64 {
		var sum uint64
		for i := 0; i < hotkeyShards; i++ {
			g, _, _ := d.Server(i).Stats()
			sum += g
		}
		return sum
	}

	// arm measures goodput and the GETs the origin shards actually
	// served during the span (the load the near cache absorbs); the
	// cached arm adds its hit rate.
	arm := func(cached bool) Metrics {
		fcfg := fleet.DefaultConfig()
		fcfg.Herd = core.DefaultConfig()
		fcfg.Herd.Mica = mica.Config{IndexBuckets: hotkeyKeys / 2, BucketSlots: 8, LogBytes: hotkeyKeys * 64}
		if cached {
			fcfg.Herd.LeaseTTL = hotkeyLeaseTTL
		}
		cl, d, fleetClients := deployFleet(deploySpec{spec: spec, seed: 1, keys: hotkeyKeys,
			valueSize: hotkeyValueSize, clients: hotkeyClients, perMachine: 1}, hotkeyShards, fcfg)
		tel := telemetry.New()
		clients := asKV(fleetClients)
		if cached {
			for i, fc := range fleetClients {
				clients[i] = nearcache.New(fc, cl.Eng, tel,
					nearcache.Config{TTL: hotkeyLeaseTTL, Leases: true})
			}
		}

		var completed uint64
		drv := newDriver(cl.Eng, func(*chain, kv.Result) { completed++ })
		for i, c := range clients {
			gen := workload.NewGenerator(workload.Skewed(hotkeyKeys, hotkeyValueSize, int64(i+1)))
			drv.add(c, gen, 4, sim.Time(i)*sim.Microsecond)
		}
		drv.warm(Warmup)
		start, originStart := completed, originGets(d)
		cl.Eng.RunFor(Span)

		m := Metrics{}
		m.Set("goodput_mops", stats.Throughput(completed-start, Span), "Mops", Higher)
		m.Set("origin_gets", float64(originGets(d)-originStart), "count", "")
		if cached {
			hitRate := 0.0
			hits := tel.Counter("cache.hits").Value()
			misses := tel.Counter("cache.misses").Value()
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
			m.Set("cache_hit_rate", hitRate, "ratio", "")
		}
		return m
	}

	rep := newReport("hotkey", spec)
	rep.Params["shards"] = fmt.Sprint(hotkeyShards)
	rep.Params["replication"] = "2"
	rep.Params["zipf_theta"] = "0.99"
	uncached, cached := arm(false), arm(true)
	rep.Arms["uncached"], rep.Arms["cached"] = uncached, cached
	speedup := 0.0
	if u := uncached["goodput_mops"].Value; u > 0 {
		speedup = cached["goodput_mops"].Value / u
	}
	cached.Set("cache_speedup", speedup, "x", "")

	t := &Table{
		ID:      "hotkey",
		Title:   fmt.Sprintf("Hot-key survival, Zipf(.99) 95%% GET, %d B items — %s", hotkeyValueSize+len(kv.Key{}), spec.Name),
		Columns: []string{"arm", "Mops", "origin GETs", "cache hit rate"},
	}
	t.AddRow("fleet, uncached", cell(uncached["goodput_mops"].Value),
		uncached.itoa("origin_gets"), "-")
	t.AddRow("near cache + leases", cell(cached["goodput_mops"].Value),
		cached.itoa("origin_gets"),
		fmt.Sprintf("%.0f%%", cached["cache_hit_rate"].Value*100))
	t.AddNote("%d clients over %d shards (R=2); lease TTL %dus; cached arm %.1fx goodput",
		hotkeyClients, hotkeyShards, hotkeyLeaseTTL/sim.Microsecond, speedup)
	return t, rep
}
