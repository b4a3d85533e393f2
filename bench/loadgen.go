package main

import (
	"bytes"
	"math"

	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/workload"
)

// loadGen generates the op streams, submits them through kv.KV calls,
// times each call from outside, and verifies every GET hit.
type loadGen struct {
	eng       *sim.Engine
	stopped   bool // no new ops are issued once set
	measuring bool // resolutions are tallied only inside the measured window

	issued, resolved uint64 // every op so far; their difference is the backlog
	win              tally

	checked, verifyErrors uint64

	// lag, when set, samples the durable lag at each PUT ack.
	lag func(kv.Key) sim.Time
}

// tally is what the measured window saw resolve.
type tally struct {
	gets, puts, served, failed uint64
	getLat, putLat, lag        []sim.Time
}

// streamSeed derives client i's op-stream seed from the run seed.
func streamSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// issue submits op on c. due is the instant the op's latency is timed
// from; next, if non-nil, runs once the op resolves.
func (d *loadGen) issue(c kv.KV, op workload.Op, due sim.Time, next func()) {
	d.issued++
	cb := func(r kv.Result) {
		d.complete(op, r, due)
		if next != nil {
			next()
		}
	}
	var err error
	if op.IsGet {
		err = c.Get(op.Key, cb)
	} else {
		err = c.Put(op.Key, workload.ExpectedValue(op.Key, valueSize), cb)
	}
	if err != nil {
		// A synchronous rejection resolves the op as failed; a closed
		// loop carries on a microsecond later instead of recursing.
		d.complete(op, kv.Result{Key: op.Key, IsGet: op.IsGet, Err: err}, due)
		if next != nil {
			d.eng.After(sim.Microsecond, next)
		}
	}
}

// complete records one resolved op.
func (d *loadGen) complete(op workload.Op, r kv.Result, due sim.Time) {
	d.resolved++
	if op.IsGet && r.Err == nil && r.Status == kv.StatusHit {
		d.verify(op.Key, r.Value)
	}
	if !d.measuring {
		return
	}
	w := &d.win
	if op.IsGet {
		w.gets++
	} else {
		w.puts++
	}
	if r.Err != nil || !r.Status.Served() {
		w.failed++
		return
	}
	w.served++
	lat := d.eng.Now() - due
	if op.IsGet {
		w.getLat = append(w.getLat, lat)
		return
	}
	w.putLat = append(w.putLat, lat)
	if d.lag != nil {
		w.lag = append(w.lag, d.lag(op.Key))
	}
}

// verify checks a GET hit against the only value ever written to key.
// A mismatch is another key's value or a torn one.
func (d *loadGen) verify(key kv.Key, got []byte) {
	d.checked++
	if !bytes.Equal(got, workload.ExpectedValue(key, valueSize)) {
		d.verifyErrors++
	}
}

// startClosed starts window outstanding ops per client, each issuing
// the client's next op when it resolves. Starts are staggered so the
// clients do not ring one synchronized doorbell at t=0.
func (d *loadGen) startClosed(clients []kv.KV, window int, mix workload.Config, seed int64) {
	stagger := 40 * sim.Microsecond / sim.Time(len(clients)+1)
	for i, c := range clients {
		cfg := mix
		cfg.Seed = streamSeed(seed, i)
		gen := workload.NewGenerator(cfg)
		var loop func()
		loop = func() {
			if !d.stopped {
				d.issue(c, gen.Next(), d.eng.Now(), loop)
			}
		}
		d.eng.At(sim.Time(i)*stagger, func() {
			for k := 0; k < window; k++ {
				loop()
			}
		})
	}
}

// startOpen issues one op stream at Poisson arrivals of rate ops per
// virtual second, round-robin over clients, regardless of completions.
// Each op is timed from its arrival, so queueing behind a stall counts.
func (d *loadGen) startOpen(clients []kv.KV, rate float64, mix workload.Config, seed int64) {
	cfg := mix
	cfg.Seed = streamSeed(seed, 0)
	gen := workload.NewGenerator(cfg)
	rnd := sim.NewRand(^seed)
	mean := float64(sim.Second) / rate
	at := d.eng.Now()
	n := 0
	var arrive func()
	arrive = func() {
		if d.stopped {
			return
		}
		d.issue(clients[n%len(clients)], gen.Next(), d.eng.Now(), nil)
		n++
		at += sim.Time(-math.Log(1-rnd.Float64()) * mean)
		d.eng.At(at, arrive)
	}
	d.eng.At(at, arrive)
}

// durableLag returns, for a PUT of key acked now, how much acknowledged
// history a crash could lose: the largest gap, over key's replicas,
// between now and the replica's last durable log record.
func durableLag(d *fleet.Deployment, eng *sim.Engine) func(kv.Key) sim.Time {
	return func(key kv.Key) sim.Time {
		var worst sim.Time
		for _, id := range d.Replicas(key) {
			if l := eng.Now() - d.Server(id).WAL().LastDurableAt(); l > worst {
				worst = l
			}
		}
		return worst
	}
}

// timedKV times every call made into the wrapped client, from the call
// to its callback. It sits between the load generator or a near cache and a
// fleet client, so fleet latency is measured without tracing.
type timedKV struct {
	kv.KV
	eng   *sim.Engine
	gets  uint64
	calls uint64
	total sim.Time
}

func (t *timedKV) Get(key kv.Key, cb func(kv.Result)) error {
	t.gets++
	return t.KV.Get(key, t.timed(cb))
}

func (t *timedKV) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	return t.KV.Put(key, value, t.timed(cb))
}

func (t *timedKV) timed(cb func(kv.Result)) func(kv.Result) {
	start := t.eng.Now()
	return func(r kv.Result) {
		t.calls++
		t.total += t.eng.Now() - start
		cb(r)
	}
}
