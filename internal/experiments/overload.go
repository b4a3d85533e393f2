package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
)

// Overload sweep shape: one server process (~6 Mops of MICA service
// capacity) under 16 client machines whose closed-loop chain count
// climbs to far past saturation (~13 chains at a ~2 us RTT).
var overloadChains = []int{16, 32, 64, 128, 256}

const (
	overloadClients   = 16
	overloadKeys      = 4096
	overloadValueSize = 32
	// overloadAdmission caps the per-process queue for the controlled
	// runs: ~12 x 160 ns of queueing keeps admitted-op delay well
	// under the 5 us retry timeout, so admitted work never re-enters
	// the retry path.
	overloadAdmission = 12
)

// overloadConfig builds the per-run HERD config. The baseline has the
// pre-overload-controller behavior: blind windows, no admission, and a
// retry budget that turns queueing delay into duplicated service and
// terminal timeouts. The controlled config adds poll-time shedding and
// client AIMD; shed operations wait out the hint instead of failing.
func overloadConfig(window int, controlled bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.NS = 1
	cfg.Window = window
	cfg.Mica = mica.Config{IndexBuckets: overloadKeys / 2, BucketSlots: 8, LogBytes: overloadKeys * 64}
	cfg.RetryTimeout = 5 * sim.Microsecond
	cfg.MaxRetries = 3
	if controlled {
		cfg.AdmissionLimit = overloadAdmission
		cfg.AdaptiveWindow = true
	}
	return cfg
}

// overloadArm names one sweep point in the report.
func overloadArm(mode string, chains int) string {
	return fmt.Sprintf("%s/chains=%d", mode, chains)
}

// overloadPoint measures one (chains, controller) combination on a
// fresh cluster. chains, the closed-loop request chains offered, is the
// load knob: one chain sustains roughly 1/RTT ops.
func overloadPoint(spec cluster.Spec, chains int, controlled bool) Metrics {
	perClient := (chains + overloadClients - 1) / overloadClients
	cl, srv, clients := deployHERD(deploySpec{spec: spec, seed: 1, keys: overloadKeys,
		valueSize: overloadValueSize, clients: overloadClients, perMachine: 1},
		overloadConfig(perClient, controlled))

	// Stagger chain starts so the opening burst is not one giant
	// synchronized doorbell.
	served, lat := measureGets(cl, clients, perClient, overloadKeys,
		func(i int) sim.Time { return sim.Time(i) * sim.Microsecond })

	// Goodput counts operations that resolved served (hit or miss) during
	// the span: duplicated service and terminal failures contribute
	// nothing. The controlled arm's tail is ratcheted; the baseline's is
	// the collapse being demonstrated.
	m := Metrics{}
	p99Better := ""
	if controlled {
		p99Better = Lower
	}
	m.Set("goodput_mops", stats.Throughput(served, Span), "Mops", Higher)
	m.Set("p99_us", float64(lat.Percentile(99))/float64(sim.Microsecond), "us", p99Better)
	m.Set("shed", float64(srv.Shed()), "count", "")
	var busy, failed, retries uint64
	for _, c := range clients {
		busy += c.BusyResponses()
		failed += c.Failed()
		retries += c.Retries()
	}
	m.Set("busy_rx", float64(busy), "count", "")
	m.Set("failed", float64(failed), "count", "")
	m.Set("retries", float64(retries), "count", "")
	return m
}

// Overload runs the goodput-and-tail-vs-offered-load sweep with and
// without the overload controller. The uncontrolled baseline collapses
// past saturation — queueing delay exceeds the retry timeout, so
// service capacity drains into duplicated requests and terminal
// timeouts — while the controller sheds at poll time (~zero CPU per
// rejected request), paces clients via AIMD, and keeps goodput at the
// service ceiling with bounded tails.
func Overload(spec cluster.Spec) (*Table, *Report) {
	rep := newReport("overload", spec)
	t := &Table{
		ID:    "overload",
		Title: fmt.Sprintf("Overload sweep, GETs on one server process — %s", spec.Name),
		Columns: []string{"chains", "base Mops", "base p99 us", "base failed",
			"ctl Mops", "ctl p99 us", "ctl shed"},
	}
	for _, chains := range overloadChains {
		b := overloadPoint(spec, chains, false)
		c := overloadPoint(spec, chains, true)
		rep.Arms[overloadArm("baseline", chains)] = b
		rep.Arms[overloadArm("controlled", chains)] = c
		t.AddRow(fmt.Sprintf("%d", chains),
			cell(b["goodput_mops"].Value), fmt.Sprintf("%.1f", b["p99_us"].Value), b.itoa("failed"),
			cell(c["goodput_mops"].Value), fmt.Sprintf("%.1f", c["p99_us"].Value), c.itoa("shed"))
	}
	t.AddNote("baseline: blind windows (up to W=%d/client), 5 us retry timeout; controlled: admission cap %d + busy pushback + client AIMD",
		overloadChains[len(overloadChains)-1]/overloadClients, overloadAdmission)
	return t, rep
}
