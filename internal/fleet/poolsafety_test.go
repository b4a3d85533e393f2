package fleet

import (
	"encoding/binary"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/kv"
)

// poolValue is the value a pool-safety write stores: the key, then the
// writing op's id, so a read can tell whose bytes it got.
func poolValue(key kv.Key, op int) []byte {
	v := make([]byte, 16)
	copy(v, key[:8])
	binary.LittleEndian.PutUint64(v[8:], uint64(op))
	return v
}

// TestRecordPoolSafetyUnderFaults drives a group-commit fleet through
// packet loss, two overlapping shard crashes and restarts (the keys
// replicated on both crashed shards have no replica up, so their ops
// fail), and busy pushback from an admission-limited shard. Every
// layer pools its per-request records: the fleet's op records, the HERD
// client's ops and retry/resubmit timers, the server's serve records,
// the WAL's flights and timers. A record recycled while a
// sub-operation, a timer, a crashed server or the log still referenced
// it would run a callback twice or never, answer one op with another's
// result, or leave work stranded. So every op must resolve exactly once, with a result for
// its own key — a read hit carrying bytes written for that key — and
// every counter must balance once the engine drains: no stale timer
// acted on a recycled op.
func TestRecordPoolSafetyUnderFaults(t *testing.T) {
	const shards, clients, depth, perClient, nKeys = 3, 4, 4, 600, 24
	sched, err := fault.ParseSchedule(`
		loss from=0 until=2ms rate=0.03
		crash node=1 at=150us restart=600us
		crash node=2 at=160us restart=560us
	`)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Apt()
	spec.Faults = sched
	cl := cluster.New(spec, shards+clients, 1)
	cfg := testConfig()
	cfg.Herd.Durability = core.DurabilityGroupCommit
	machines := make([]*cluster.Machine, shards)
	for i := range machines {
		machines[i] = cl.Machine(i)
	}
	d, err := NewDeployment(machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Server(2).SetAdmissionLimit(1) // a browned-out shard: busy pushback
	d.RegisterCrashTargets(cl.Faults())
	cl.Faults().Arm()
	fcs := make([]*Client, clients)
	for i := range fcs {
		if fcs[i], err = d.ConnectClient(cl.Machine(shards + i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]kv.Key, nKeys)
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(i) + 1)
	}

	resolved := make([]int, clients*perClient)
	var reads, hits, failed int
	var issue func(ci, n int)
	issue = func(ci, n int) {
		if n >= perClient {
			return
		}
		id := ci*perClient + n
		key := keys[(id*7)%nKeys]
		c := fcs[ci]
		done := func(r kv.Result) {
			resolved[id]++
			if r.Key != key {
				t.Errorf("op %d on key %v resolved for key %v", id, key, r.Key)
			}
			if r.Err != nil {
				failed++
			} else if r.IsGet && r.Status == kv.StatusHit {
				hits++
				if len(r.Value) != 16 || [8]byte(r.Value[:8]) != [8]byte(key[:8]) {
					t.Errorf("op %d read %x for key %v: another key's bytes", id, r.Value, key)
				}
			}
			issue(ci, n+depth)
		}
		var err error
		switch id % 5 {
		case 0, 1, 2:
			err = c.Put(key, poolValue(key, id), done)
		default:
			reads++
			err = c.Get(key, done)
		}
		if err != nil {
			t.Fatalf("op %d: %v", id, err)
		}
	}
	for ci := range fcs {
		for n := 0; n < depth; n++ {
			issue(ci, n)
		}
	}
	cl.Eng.Run()

	for id, n := range resolved {
		if n != 1 {
			t.Fatalf("op %d resolved %d times, want exactly once", id, n)
		}
	}
	if hits == 0 || failed == 0 {
		t.Fatalf("%d read hits and %d failed ops: the run must both serve reads and fail ops under fire", hits, failed)
	}
	var partial, busy, retries, clientFailed uint64
	for ci, c := range fcs {
		if c.Inflight() != 0 {
			t.Fatalf("client %d: %d ops in flight after drain", ci, c.Inflight())
		}
		clientFailed += c.Failed()
		for id, kvSub := range c.subs {
			sub := kvSub.(*core.Client)
			if sub.Inflight() != 0 {
				t.Fatalf("client %d: shard %d sub-client has %d ops in flight after drain", ci, id, sub.Inflight())
			}
			busy += sub.BusyResponses()
			retries += sub.Retries()
		}
		seen := make(map[*op]bool)
		for _, o := range c.opFree {
			if seen[o] {
				t.Fatalf("client %d: an op record is in the pool twice", ci)
			}
			seen[o] = true
		}
		partial += c.PartialWrites()
	}
	if busy == 0 || retries == 0 || d.Server(1).LastRecovery().At == 0 {
		t.Fatalf("%d busy responses, %d retries, shard 1 recovered at %v: the run must see pushback, loss and a restart",
			busy, retries, d.Server(1).LastRecovery().At)
	}
	if clientFailed != uint64(failed) {
		t.Fatalf("clients count %d failed ops, callbacks saw %d", clientFailed, failed)
	}
	for i := 0; i < shards; i++ {
		if n := d.Server(i).WAL().Pending(); n != 0 {
			t.Fatalf("shard %d's log holds %d unpersisted records after drain", i, n)
		}
	}
	t.Logf("%d reads (%d hits), %d failed ops, %d partial writes, %d busy responses, %d retries",
		reads, hits, failed, partial, busy, retries)
}
