package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/mux"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
)

// Client-count sweep: from comfortably inside the ConnectX-3 receive
// context cache (RecvCtxCap = 280) to 10k clients, far past it.
var clientsSweep = []int{100, 260, 500, 1000, 2000, 5000, 10000}

const (
	// clientsHosts is the number of client machines both arms use; only
	// how the logical clients reach the server differs.
	clientsHosts = 32
	// clientsMuxQPs is each endpoint's pool size in the muxed arm:
	// 32 hosts x 4 QPs = 128 connected QPs at the server, inside the
	// 280-entry receive context cache at every sweep point.
	clientsMuxQPs    = 4
	clientsKeys      = 4096
	clientsValueSize = 32
)

// clientsConfig builds the per-run HERD config: W=1 per connected
// client (the region for 10k direct clients is already 40 MB) and four
// server processes, so the CPU ceiling sits well above the
// context-thrashed NIC ceiling and the cliff is visible in goodput.
func clientsConfig(maxClients int) core.Config {
	cfg := core.DefaultConfig()
	cfg.NS = 4
	cfg.MaxClients = maxClients
	cfg.Window = 1
	cfg.Mica = mica.Config{IndexBuckets: clientsKeys / 2, BucketSlots: 8, LogBytes: clientsKeys * 64}
	return cfg
}

// clientsShare splits n logical clients across the client hosts.
func clientsShare(n, host int) int {
	s := n / clientsHosts
	if host < n%clientsHosts {
		s++
	}
	return s
}

// clientsPoint measures one (clients, muxed) combination on a fresh
// cluster: `clients` closed-loop GET chains, reaching the server either
// as one connected QP set each (muxed=false) or as channels over a
// 4-QP endpoint per host (muxed=true).
func clientsPoint(spec cluster.Spec, clients int, muxed bool) Metrics {
	maxClients := clients
	if muxed {
		maxClients = clientsHosts * clientsMuxQPs
	}
	cl := cluster.New(spec, 1+clientsHosts, 1)
	srv, err := core.NewServer(cl.Machine(0), clientsConfig(maxClients))
	if err != nil {
		panic(err)
	}
	preloadKeys(clientsKeys, clientsValueSize, srv.Preload)

	var kvs []kv.KV
	serverQPs := 0
	for h := 0; h < clientsHosts; h++ {
		n := clientsShare(clients, h)
		if n == 0 {
			continue
		}
		if muxed {
			ep, err := mux.Connect(srv, cl.Machine(1+h), mux.Config{QPs: clientsMuxQPs})
			if err != nil {
				panic(err)
			}
			serverQPs += ep.PoolSize()
			for j := 0; j < n; j++ {
				ch, err := ep.OpenChannel()
				if err != nil {
					panic(err)
				}
				kvs = append(kvs, ch)
			}
		} else {
			for j := 0; j < n; j++ {
				c, err := srv.ConnectClient(cl.Machine(1 + h))
				if err != nil {
					panic(err)
				}
				kvs = append(kvs, c)
				serverQPs++
			}
		}
	}

	// Spread chain starts across the warmup window so 10k clients do
	// not ring one synchronized doorbell at t=0.
	served, lat := measureGets(cl, kvs, 1, clientsKeys,
		func(i int) sim.Time { return Warmup * sim.Time(i) / sim.Time(len(kvs)) })

	// server_qps is the quantity the RNIC's context cache is sized
	// against; the receive-context hit rate and evictions are the cliff's
	// direct mechanism. p99 is queue-inclusive, so it grows with client
	// count in a closed loop even at flat throughput; only the muxed arm
	// under test ratchets it.
	srvNIC := cl.Machine(0).Verbs.NIC()
	m := Metrics{}
	p99Better := ""
	if muxed {
		p99Better = Lower
	}
	m.Set("server_qps", float64(serverQPs), "count", "")
	m.Set("goodput_mops", stats.Throughput(served, Span), "Mops", Higher)
	m.Set("p99_us", float64(lat.Percentile(99))/float64(sim.Microsecond), "us", p99Better)
	m.Set("recv_ctx_hit_rate", srvNIC.RecvCtxHitRate(), "ratio", "")
	m.Set("recv_ctx_evicts", float64(srvNIC.RecvCtxCache().Evictions()), "count", "")
	return m
}

// clientsArm names one sweep point in the report.
func clientsArm(mode string, clients int) string {
	return fmt.Sprintf("%s/clients=%d", mode, clients)
}

// Clients runs the connection-scalability sweep with and without the
// endpoint tier. Directly connected clients reproduce Figure 12: once
// the count passes the NIC's receive-context-cache capacity, every
// inbound request WRITE misses the QP context cache, the fetch stalls
// the NIC's processing units, and throughput falls off a cliff. Muxed
// clients ride 4-QP endpoints (internal/mux), pinning the server's
// connected-QP count at 128 regardless of client count, so the context
// working set always fits and throughput stays flat
// (docs/SCALABILITY.md).
func Clients(spec cluster.Spec) (*Table, *Report) {
	rep := newReport("clients", spec)
	t := &Table{
		ID:    "clients",
		Title: fmt.Sprintf("Client scaling, closed-loop GETs — %s", spec.Name),
		Columns: []string{"clients", "direct QPs", "direct Mops", "direct ctx hit",
			"mux QPs", "mux Mops", "mux ctx hit"},
	}
	for _, n := range clientsSweep {
		d := clientsPoint(spec, n, false)
		m := clientsPoint(spec, n, true)
		rep.Arms[clientsArm("direct", n)] = d
		rep.Arms[clientsArm("mux", n)] = m
		t.AddRow(fmt.Sprintf("%d", n),
			d.itoa("server_qps"), cell(d["goodput_mops"].Value), fmt.Sprintf("%.3f", d["recv_ctx_hit_rate"].Value),
			m.itoa("server_qps"), cell(m["goodput_mops"].Value), fmt.Sprintf("%.3f", m["recv_ctx_hit_rate"].Value))
	}
	t.AddNote("direct: one connected UC QP per client (Figure 12); mux: %d endpoints x %d QPs, channels multiplexed (internal/mux); recv ctx cache %d entries",
		clientsHosts, clientsMuxQPs, spec.NIC.RecvCtxCap)
	return t, rep
}
