package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// Measurement windows. Experiments warm up (filling pipelines and
// caches), then measure over a steady-state span of virtual time.
// Shrinking these trades precision for wall-clock speed (the benchmark
// harness does).
var (
	Warmup = 150 * sim.Microsecond
	Span   = 400 * sim.Microsecond
)

// staggered returns client i of n's start time, spread evenly over
// 40 µs: real client fleets do not begin in lockstep, and a
// synchronized start puts the closed-loop system into a long
// oscillatory transient at high client counts.
func staggered(i, n int) sim.Time {
	return sim.Time(i) * (40 * sim.Microsecond / sim.Time(n+1))
}

// driver runs closed-loop KV clients, the way the paper measures every
// end-to-end figure: each client keeps `window` ops in flight, and a
// chain reissues as soon as its op completes. Each completion is
// counted and handed to observe before the reissue; setting stopped
// ends reissue, so the loop dies out as the in-flight ops resolve.
type driver struct {
	eng       *sim.Engine
	observe   func(*chain, kv.Result)
	stopped   bool
	issued    uint64
	completed uint64
	clients   []*driverClient
}

// driverClient is one client: its store, op stream and chains.
type driverClient struct {
	kv     kv.KV
	src    opSource
	nop    int // ops issued so far
	chains []chain
}

// chain is one closed-loop request slot: a record built once, with its
// completion callback bound once, so the loop allocates nothing per op.
type chain struct {
	d        *driver
	cli      *driverClient
	done     func(kv.Result)
	op       workload.Op // the op in flight
	nop      int         // op's 1-based issue ordinal within its client
	at       sim.Time    // op's issue time
	inFlight bool        // op has not completed yet
}

// newDriver returns a driver that hands each completion to observe; a
// nil observe only counts them.
func newDriver(eng *sim.Engine, observe func(*chain, kv.Result)) *driver {
	if observe == nil {
		observe = func(*chain, kv.Result) {}
	}
	return &driver{eng: eng, observe: observe}
}

// add drives c with `window` chains over src, all started by one event
// at start.
func (d *driver) add(c kv.KV, src opSource, window int, start sim.Time) {
	cli := &driverClient{kv: c, src: src, chains: make([]chain, window)}
	for i := range cli.chains {
		ch := &cli.chains[i]
		ch.d, ch.cli = d, cli
		ch.done = ch.complete
	}
	d.clients = append(d.clients, cli)
	d.eng.AtHandler(start, cli)
}

// warm runs the engine through warmup w, then panics if a client has
// issued nothing yet: its start would fall inside the measured span,
// which would then measure a ramp rather than the steady state.
func (d *driver) warm(w sim.Time) {
	d.eng.RunFor(w)
	for i, cli := range d.clients {
		if cli.nop == 0 {
			panic(fmt.Sprintf("experiments: client %d of %d has issued nothing when the measured span opens at %.1f us; "+
				"start it earlier or lengthen the warmup", i, len(d.clients), d.eng.Now().Microseconds()))
		}
	}
}

// measure runs the engine through span and returns the ops completed
// in it.
func (d *driver) measure(span sim.Time) uint64 {
	start := d.completed
	d.eng.RunFor(span)
	return d.completed - start
}

// Fire starts the client's chains.
func (cli *driverClient) Fire(sim.Time) {
	for i := range cli.chains {
		cli.chains[i].issue()
	}
}

// issue draws the client's next op (and, for a PUT, its value) and
// posts it. The value may live in a buffer the source reuses: every
// Put copies its value before it returns.
//
//herd:hotpath
func (ch *chain) issue() {
	cli := ch.cli
	ch.op = cli.src.Next()
	cli.nop++
	ch.nop = cli.nop
	ch.at = ch.d.eng.Now()
	ch.inFlight = true
	ch.d.issued++
	var err error
	if ch.op.IsGet {
		err = cli.kv.Get(ch.op.Key, ch.done)
	} else {
		err = cli.kv.Put(ch.op.Key, cli.src.Value(ch.op.Key), ch.done)
	}
	mustPost(err)
}

// complete counts and observes the op's result, then reissues unless
// stopped.
//
//herd:hotpath
func (ch *chain) complete(r kv.Result) {
	ch.inFlight = false
	ch.d.completed++
	ch.d.observe(ch, r)
	if !ch.d.stopped {
		ch.issue()
	}
}

// opSource is one client's op stream: the next op, and the value a PUT
// of key writes. workload.Generator is one.
type opSource interface {
	Next() workload.Op
	Value(kv.Key) []byte
}

// seqGets is the GET-only op source of the overload and client-count
// sweeps: keys walk sequentially from a per-client offset.
type seqGets struct{ seq, keys uint64 }

func (s *seqGets) Next() workload.Op {
	s.seq++
	return workload.Op{IsGet: true, Key: kv.FromUint64(s.seq % s.keys)}
}

func (s *seqGets) Value(kv.Key) []byte { return nil }

// measureGets drives each client with window seqGets chains (client i
// from key i*977, started at start(i)), and returns the GETs served
// during Span, after Warmup, and their latencies.
func measureGets[C kv.KV](cl *cluster.Cluster, clients []C, window int, keys uint64,
	start func(i int) sim.Time) (served uint64, lat *stats.LatencyRecorder) {
	lat = stats.NewLatencyRecorder(0)
	measuring := false
	d := newDriver(cl.Eng, func(_ *chain, r kv.Result) {
		if r.Err == nil && measuring {
			served++
			lat.Record(r.Latency)
		}
	})
	for i, c := range clients {
		d.add(c, &seqGets{seq: uint64(i) * 977, keys: keys}, window, start(i))
	}
	d.warm(Warmup)
	measuring = true
	cl.Eng.RunFor(Span)
	return served, lat
}

// preloadKeys inserts keys 0..n-1, each with its
// workload.ExpectedValue of size bytes, and panics on a refused insert.
// Every insert path copies the value before it returns (core and fleet
// Preload, the Pilaf/FaRM Insert, mica's Put), so one buffer serves
// the whole keyspace.
func preloadKeys(n uint64, size int, insert func(kv.Key, []byte) error) {
	var val []byte
	for k := uint64(0); k < n; k++ {
		key := kv.FromUint64(k)
		val = workload.AppendExpectedValue(val[:0], key, size)
		if err := insert(key, val); err != nil {
			panic(err)
		}
	}
}

// measureMops runs the engine through warmup then Span, reading counter
// before and after, and returns millions of ops per second.
func measureMops(cl *cluster.Cluster, counter *uint64) float64 {
	cl.Eng.RunFor(Warmup)
	start := *counter
	cl.Eng.RunFor(Span)
	return stats.Throughput(*counter-start, Span)
}

// meanLatencySerial issues reps sequential operations through op (which
// must invoke done exactly once per issue with the measured latency) and
// returns the mean.
func meanLatencySerial(cl *cluster.Cluster, reps int, op func(done func(sim.Time))) sim.Time {
	var total sim.Time
	n := 0
	var next func()
	next = func() {
		if n >= reps {
			return
		}
		op(func(lat sim.Time) {
			total += lat
			n++
			next()
		})
	}
	next()
	cl.Eng.Run()
	if n == 0 {
		return 0
	}
	return total / sim.Time(n)
}

// mustPost consumes the synchronous error from a verbs or KV post in
// an experiment driver. A rejected post is a driver bug (faults resolve
// through the callback, never here): fail loudly rather than measure a
// silently idle run.
//
//herd:hotpath
func mustPost(err error) {
	if err != nil {
		panic(err)
	}
}
