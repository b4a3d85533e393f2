// Command herdload is a configurable load generator for the simulated
// key-value systems: pick a system, cluster, workload and fleet size,
// and it reports throughput, latency percentiles and hit rate from a
// steady-state measurement window.
//
// It is a flag front end over internal/experiments' end-to-end runner
// (RunE2E), the one behind Figures 9–14: the flag defaults are the
// paper's setup, so a default run measures Fig 9's read-intensive
// point on Apt.
//
//	herdload -system herd -clients 51 -get 0.95 -value 32 -duration 400
//	herdload -system pilaf -cluster susitna -zipf
//	herdload -system herd -sendmode -clients 400
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/experiments"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// systems maps each -system name to the experiments' system name.
var systems = map[string]string{
	"herd":     experiments.SysHERD,
	"pilaf":    experiments.SysPilaf,
	"farm":     experiments.SysFaRM,
	"farm-var": experiments.SysFaRMVar,
}

// run parses args, measures one point and prints its report to stdout.
// It returns the exit status: 2 for a bad flag, 1 for a failed metrics
// write or a wrong GET value.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := experiments.DefaultE2E(cluster.Apt(), experiments.SysHERD)
	fs := flag.NewFlagSet("herdload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "herd", "herd, pilaf, farm or farm-var")
	clusterF := fs.String("cluster", "apt", "apt or susitna")
	fs.IntVar(&cfg.Clients, "clients", cfg.Clients, "client processes (3 per machine)")
	fs.Float64Var(&cfg.GetFraction, "get", cfg.GetFraction, "GET fraction of the workload")
	fs.IntVar(&cfg.ValueSize, "value", cfg.ValueSize, "value size in bytes")
	fs.Uint64Var(&cfg.Keys, "keys", cfg.Keys, "keyspace size (preloaded)")
	fs.BoolVar(&cfg.Zipf, "zipf", cfg.Zipf, "Zipf(.99) key popularity instead of uniform")
	fs.IntVar(&cfg.Window, "window", cfg.Window, "outstanding requests per client")
	fs.IntVar(&cfg.Cores, "cores", cfg.Cores, "server processes / cores")
	sendMode := fs.Bool("sendmode", false, "HERD only: SEND/SEND architecture")
	loss := fs.Float64("loss", 0, "uniform packet-loss probability on every link (-system herd with -retry only)")
	retryUS := fs.Int("retry", 0, "HERD only: retry timeout (simulated microseconds; 0 = no retries)")
	duration := fs.Int("duration", 400, "measurement window (simulated microseconds)")
	warmup := fs.Int("warmup", 150, "warmup (simulated microseconds)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "deterministic seed")
	metricsF := fs.String("metrics", "", "write a metrics dump to this file after the run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	usage := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "herdload: "+format+"\n", a...)
		return 2
	}
	var ok bool
	if cfg.System, ok = systems[strings.ToLower(*system)]; !ok {
		return usage("unknown system %q (herd, pilaf, farm, farm-var)", *system)
	}
	herdOnly := ""
	fs.Visit(func(f *flag.Flag) {
		if herdOnly == "" && (f.Name == "sendmode" || f.Name == "retry") {
			herdOnly = f.Name
		}
	})
	if herdOnly != "" && cfg.System != experiments.SysHERD {
		return usage("-%s applies to -system herd only", herdOnly)
	}
	switch strings.ToLower(*clusterF) {
	case "apt":
		cfg.Spec = cluster.Apt()
	case "susitna":
		cfg.Spec = cluster.Susitna()
	default:
		return usage("unknown cluster %q (apt, susitna)", *clusterF)
	}
	// The runner panics on a deployment it cannot build, so every
	// flag is checked here first.
	for _, c := range []struct {
		flag string
		ok   bool
		want string
	}{
		{"clients", cfg.Clients >= 1, "at least 1"},
		{"window", cfg.Window >= 1, "at least 1"},
		{"cores", cfg.Cores >= 1 && cfg.Cores <= cfg.Spec.Cores, fmt.Sprintf("in [1, %d]", cfg.Spec.Cores)},
		{"keys", cfg.Keys >= 1, "at least 1"},
		{"duration", *duration >= 1, "at least 1"},
		{"warmup", *warmup >= 0, "at least 0"},
		{"retry", *retryUS >= 0, "at least 0"},
		{"get", cfg.GetFraction >= 0 && cfg.GetFraction <= 1, "in [0, 1]"},
		{"loss", *loss >= 0 && *loss <= 1, "in [0, 1]"},
		{"value", cfg.ValueSize >= 1 && cfg.ValueSize <= mica.MaxValueSize, fmt.Sprintf("in [1, %d]", mica.MaxValueSize)},
	} {
		if !c.ok {
			return usage("-%s %s: must be %s", c.flag, fs.Lookup(c.flag).Value, c.want)
		}
	}
	// Only HERD's client retries, and only with -retry set: without
	// retries an op whose packet is lost never completes, so its chain
	// stops and the run measures a shrinking load.
	if *loss > 0 && (cfg.System != experiments.SysHERD || *retryUS == 0) {
		return usage("-loss %v needs -system herd and -retry > 0: without retries a lost op never completes", *loss)
	}

	if *sendMode {
		cfg.RequestPath = core.RequestSend
	}
	cfg.Spec.Link.LossRate = *loss
	cfg.RetryTimeout = sim.Time(*retryUS) * sim.Microsecond
	experiments.Warmup = sim.Time(*warmup) * sim.Microsecond
	experiments.Span = sim.Time(*duration) * sim.Microsecond
	// A metrics-only sink schedules no events, so it is always on: the
	// reliability line reads its counters, and -metrics only decides
	// whether the registry is written out.
	sink := telemetry.New()
	cluster.SetDefaultTelemetry(sink)
	defer cluster.SetDefaultTelemetry(nil)
	r := experiments.RunE2E(cfg)

	fmt.Fprintf(stdout, "system      %s on %s\n", *system, cfg.Spec.Name)
	fmt.Fprintf(stdout, "fleet       %d clients, window %d, %d server cores\n", cfg.Clients, cfg.Window, cfg.Cores)
	dist := "uniform"
	if cfg.Zipf {
		dist = "Zipf(.99)"
	}
	fmt.Fprintf(stdout, "workload    %.0f%% GET, %d B values, %d keys, %s\n",
		cfg.GetFraction*100, cfg.ValueSize, cfg.Keys, dist)
	fmt.Fprintf(stdout, "throughput  %.2f Mops\n", r.Mops)
	fmt.Fprintf(stdout, "latency     all ops: mean %.2f us, p5 %.2f, p50 %.2f, p95 %.2f, p99 %.2f\n",
		r.Mean.Microseconds(), r.P5.Microseconds(), r.P50.Microseconds(), r.P95.Microseconds(), r.P99.Microseconds())
	if r.Gets > 0 {
		fmt.Fprintf(stdout, "hit rate    %.2f%% over %d GETs\n", float64(r.Gets-r.GetMisses)/float64(r.Gets)*100, r.Gets)
	}
	if cfg.System == experiments.SysHERD {
		reg := sink.Registry
		fmt.Fprintf(stdout, "reliability %d retries, %d duplicate and %d corrupt responses discarded, %d timed-out ops, %d reconnects\n",
			reg.Counter("herd.retries").Value(), reg.Counter("herd.responses.duplicate").Value(),
			reg.Counter("herd.responses.corrupt").Value(), reg.Counter("herd.ops.failed").Value(),
			reg.Counter("herd.reconnects").Value())
	}
	if *metricsF != "" {
		if err := writeFile(*metricsF, sink.Registry.WriteText); err != nil {
			fmt.Fprintf(stderr, "herdload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics     written to %s\n", *metricsF)
	}
	if r.VerifyErr > 0 {
		fmt.Fprintf(stdout, "VERIFY FAIL %d mismatched GET values\n", r.VerifyErr)
		return 1
	}
	return 0
}

// writeFile writes path through write; a create, write or close
// failure is returned.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
