package herdkv_test

import (
	"bytes"
	"testing"

	"herdkv"
)

func TestFacadeQuickstart(t *testing.T) {
	cl := herdkv.NewCluster(herdkv.Apt(), 2, 1)
	cfg := herdkv.DefaultConfig()
	cfg.NS = 2
	cfg.MaxClients = 1
	srv, err := herdkv.NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	key := herdkv.KeyFromUint64(1)
	var got herdkv.Result
	cli.Put(key, []byte("facade"), func(herdkv.Result) {
		cli.Get(key, func(r herdkv.Result) { got = r })
	})
	cl.Eng.Run()
	if got.Status != herdkv.StatusHit || string(got.Value) != "facade" {
		t.Fatalf("round trip through facade: %+v", got)
	}
	if got.Latency < herdkv.Microsecond || got.Latency > 10*herdkv.Microsecond {
		t.Fatalf("latency %v out of range", got.Latency)
	}
}

func TestFacadeMux(t *testing.T) {
	cl := herdkv.NewCluster(herdkv.Apt(), 2, 1)
	cfg := herdkv.DefaultConfig()
	cfg.NS = 2
	cfg.MaxClients = 2
	srv, err := herdkv.NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := herdkv.ConnectMux(srv, cl.Machine(1), herdkv.DefaultMuxConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Three logical clients over the server's two connected QP slots.
	chans := make([]*herdkv.MuxChannel, 3)
	for i := range chans {
		if chans[i], err = ep.OpenChannel(); err != nil {
			t.Fatal(err)
		}
	}
	key := herdkv.KeyFromUint64(2)
	var got herdkv.Result
	chans[0].Put(key, []byte("muxed"), func(herdkv.Result) {
		chans[2].Get(key, func(r herdkv.Result) { got = r })
	})
	cl.Eng.Run()
	if got.Status != herdkv.StatusHit || string(got.Value) != "muxed" {
		t.Fatalf("round trip through mux facade: %+v", got)
	}
}

// TestFacadeNearCache drives the near-cache wrapper through the
// facade: a leased HERD server behind a NearCache serves the second
// read locally, and the wrapper satisfies KV.
func TestFacadeNearCache(t *testing.T) {
	cl := herdkv.NewCluster(herdkv.Apt(), 2, 1)
	cfg := herdkv.DefaultConfig()
	cfg.NS = 2
	cfg.MaxClients = 1
	cfg.LeaseTTL = 20 * herdkv.Microsecond
	srv, err := herdkv.NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	nccfg := herdkv.DefaultNearCacheConfig()
	nccfg.Leases = true
	nc := herdkv.NewNearCache(cli, cl.Eng, herdkv.NewTelemetry(), nccfg)
	var _ herdkv.KV = nc

	key := herdkv.KeyFromUint64(3)
	var fill, cached herdkv.Result
	nc.Put(key, []byte("near"), func(herdkv.Result) {
		nc.Get(key, func(r herdkv.Result) {
			fill = r
			nc.Get(key, func(r herdkv.Result) { cached = r })
		})
	})
	cl.Eng.Run()
	if fill.Status != herdkv.StatusHit || fill.Lease == 0 {
		t.Fatalf("fill read %+v, want leased hit", fill)
	}
	if cached.Status != herdkv.StatusHit || string(cached.Value) != "near" {
		t.Fatalf("cached read %+v", cached)
	}
	if cached.Latency >= fill.Latency {
		t.Fatalf("cached read latency %v not below origin fill %v", cached.Latency, fill.Latency)
	}
}

func TestFacadeBaselines(t *testing.T) {
	cl := herdkv.NewCluster(herdkv.Susitna(), 3, 2)
	key := herdkv.KeyFromUint64(7)

	pcfg := herdkv.DefaultPilafConfig()
	pcfg.Buckets = 1024
	psrv, err := herdkv.NewPilafServer(cl.Machine(0), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcli, err := psrv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	psrv.Insert(key, []byte("pilaf"))
	var pres herdkv.Result
	pcli.Get(key, func(r herdkv.Result) { pres = r })
	cl.Eng.Run()
	if pres.Status != herdkv.StatusHit || string(pres.Value) != "pilaf" {
		t.Fatalf("pilaf facade: %+v", pres)
	}

	fcfg := herdkv.DefaultFarmConfig()
	fcfg.Mode = herdkv.FarmOutOfTable
	fcfg.Buckets = 1024
	fsrv, err := herdkv.NewFarmServer(cl.Machine(0), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	fcli, err := fsrv.ConnectClient(cl.Machine(2))
	if err != nil {
		t.Fatal(err)
	}
	fsrv.Insert(key, []byte("farm"))
	var fres herdkv.Result
	fcli.Get(key, func(r herdkv.Result) { fres = r })
	cl.Eng.Run()
	if fres.Status != herdkv.StatusHit || string(fres.Value) != "farm" {
		t.Fatalf("farm facade: %+v", fres)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	for _, cfg := range []herdkv.Workload{
		herdkv.ReadIntensive(100, 32, 1),
		herdkv.WriteIntensive(100, 32, 1),
		herdkv.Skewed(100, 32, 1),
	} {
		gen := herdkv.NewWorkload(cfg)
		for i := 0; i < 100; i++ {
			op := gen.Next()
			if op.Key.IsZero() {
				t.Fatal("zero key from workload")
			}
		}
	}
	key := herdkv.KeyFromUint64(3)
	if !bytes.Equal(herdkv.ExpectedValue(key, 16), herdkv.ExpectedValue(key, 16)) {
		t.Fatal("ExpectedValue not deterministic")
	}
}

func TestFacadeSpecs(t *testing.T) {
	apt, sus := herdkv.Apt(), herdkv.Susitna()
	if apt.Name != "Apt" || sus.Name != "Susitna" {
		t.Fatal("spec names")
	}
	if apt.Link.Gbps != 56 || sus.Link.Gbps != 40 {
		t.Fatal("link rates")
	}
}

func TestFacadeTimeUnits(t *testing.T) {
	if herdkv.Second != 1000*herdkv.Millisecond {
		t.Fatal("time unit arithmetic")
	}
	var d herdkv.Time = 2500 * herdkv.Nanosecond
	if d.Microseconds() != 2.5 {
		t.Fatal("time conversion")
	}
}
