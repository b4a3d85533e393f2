package farm

import (
	"bytes"
	"errors"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/hopscotch"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

func newSymmetric(t *testing.T, n int) (*cluster.Cluster, *Symmetric) {
	t.Helper()
	cfg := Config{
		Mode: InlineMode, Buckets: 1 << 12, ValueSize: 32,
		ExtentBytes: 1 << 20, Cores: 2, Window: 4,
	}
	cl := cluster.New(cluster.Apt(), n, 1)
	sym, err := NewSymmetric(cl, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, sym
}

func val(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

func TestSymmetricRouting(t *testing.T) {
	_, sym := newSymmetric(t, 4)
	// Every machine must own some keys.
	owned := make([]int, 4)
	for i := uint64(0); i < 4000; i++ {
		owned[sym.Owner(kv.FromUint64(i))]++
	}
	for m, c := range owned {
		if c < 600 {
			t.Fatalf("machine %d owns only %d of 4000 keys", m, c)
		}
	}
}

func TestSymmetricRemoteAndLocalOps(t *testing.T) {
	cl, sym := newSymmetric(t, 4)
	var localKey, remoteKey kv.Key
	for i := uint64(1); ; i++ {
		k := kv.FromUint64(i)
		if sym.Owner(k) == 0 && localKey.IsZero() {
			localKey = k
		}
		if sym.Owner(k) == 2 && remoteKey.IsZero() {
			remoteKey = k
		}
		if !localKey.IsZero() && !remoteKey.IsZero() {
			break
		}
	}
	var localGet, remoteGet Result
	// Machine 0 writes both, then reads both back.
	m0 := sym.Client(0)
	m0.Put(localKey, val(1), func(Result) {
		m0.Put(remoteKey, val(2), func(Result) {
			m0.Get(localKey, func(r Result) { localGet = r })
			m0.Get(remoteKey, func(r Result) { remoteGet = r })
		})
	})
	cl.Eng.Run()
	if localGet.Status != kv.StatusHit || !bytes.Equal(localGet.Value, val(1)) {
		t.Fatalf("local GET = %+v", localGet)
	}
	if remoteGet.Status != kv.StatusHit || !bytes.Equal(remoteGet.Value, val(2)) {
		t.Fatalf("remote GET = %+v", remoteGet)
	}
	// Local access skips the network entirely.
	if localGet.Latency >= remoteGet.Latency {
		t.Fatalf("local (%v) should be faster than remote (%v)", localGet.Latency, remoteGet.Latency)
	}
	if localGet.Latency > 600*sim.Nanosecond {
		t.Fatalf("local GET latency %v too high for a memory access", localGet.Latency)
	}
}

func TestSymmetricCrossMachineVisibility(t *testing.T) {
	cl, sym := newSymmetric(t, 3)
	key := kv.FromUint64(99)
	var got Result
	sym.Client(1).Put(key, val(7), func(Result) {
		sym.Client(2).Get(key, func(r Result) { got = r })
	})
	cl.Eng.Run()
	if got.Status != kv.StatusHit || !bytes.Equal(got.Value, val(7)) {
		t.Fatalf("cross-machine read = %+v", got)
	}
}

func TestSymmetricAggregateScalesWithMachines(t *testing.T) {
	// The symmetric design's appeal: total GET capacity grows with the
	// cluster because every NIC serves READs.
	measure := func(n int) float64 {
		cl, sym := newSymmetric(t, n)
		for i := uint64(0); i < 2048; i++ {
			if err := sym.Preload(kv.FromUint64(i), val(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		var completed uint64
		stop := false
		for m := 0; m < n; m++ {
			m := m
			var loop func(k uint64)
			loop = func(k uint64) {
				sym.Client(m).Get(kv.FromUint64(k%2048), func(Result) {
					completed++
					if !stop {
						loop(k + 7)
					}
				})
			}
			for w := 0; w < 8; w++ {
				loop(uint64(m*1000 + w))
			}
		}
		cl.Eng.RunFor(100 * sim.Microsecond)
		start := completed
		cl.Eng.RunFor(200 * sim.Microsecond)
		stop = true
		return float64(completed-start) / 200e-6 / 1e6
	}
	four, eight := measure(4), measure(8)
	if eight < four*1.5 {
		t.Fatalf("aggregate should scale: %d machines %.1f Mops vs %d machines %.1f Mops",
			4, four, 8, eight)
	}
}

// TestSymmetricRefusesMalformedOps checks that every machine refuses,
// synchronously and on both paths, what a FaRM client refuses: a zero
// key, an empty value and a value the inline table cannot hold. The
// zero key's owner would otherwise take it down the local path, where
// it named an empty slot.
func TestSymmetricRefusesMalformedOps(t *testing.T) {
	cl, sym := newSymmetric(t, 3)
	ran := false
	cb := func(Result) { ran = true }
	for m := 0; m < 3; m++ {
		c := sym.Client(m)
		var zero kv.Key
		if err := c.Get(zero, cb); !errors.Is(err, kv.ErrZeroKey) {
			t.Errorf("machine %d: Get(zero key) = %v, want kv.ErrZeroKey", m, err)
		}
		if err := c.Put(zero, val(1), cb); !errors.Is(err, kv.ErrZeroKey) {
			t.Errorf("machine %d: Put(zero key) = %v, want kv.ErrZeroKey", m, err)
		}
		// One key per owner, so each machine refuses locally and remotely.
		for owner := 0; owner < 3; owner++ {
			var key kv.Key
			for i := uint64(1); sym.Owner(key) != owner || key.IsZero(); i++ {
				key = kv.FromUint64(i)
			}
			if err := c.Put(key, nil, cb); !errors.Is(err, kv.ErrEmptyValue) {
				t.Errorf("machine %d, owner %d: Put(empty value) = %v, want kv.ErrEmptyValue", m, owner, err)
			}
			if err := c.Put(key, make([]byte, 16), cb); !errors.Is(err, hopscotch.ErrValueSize) {
				t.Errorf("machine %d, owner %d: Put(16 B into a 32 B table) = %v, want hopscotch.ErrValueSize", m, owner, err)
			}
		}
	}
	cl.Eng.Run()
	if ran {
		t.Fatal("a refused op still ran its callback")
	}
}

func TestSymmetricValidation(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 1, 1)
	if _, err := NewSymmetric(cl, 2, DefaultConfig()); err == nil {
		t.Fatal("too few machines accepted")
	}
	if _, err := NewSymmetric(cl, 1, DefaultConfig()); err == nil {
		t.Fatal("n=1 accepted")
	}
}
