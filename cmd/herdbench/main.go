// Command herdbench regenerates the paper's tables and figures on the
// simulated clusters.
//
// Usage:
//
//	herdbench [-cluster apt|susitna] [-warmup us] [-span us]
//	          [-metrics file] [-trace file] [-perqp]
//	          [-faults script] [-json dir] [targets...]
//
// Targets are table1, table2, fig1..fig14, the ablations, the chaos
// scenarios and the extension experiments, or "all" (default); -list
// prints every target. Figure 9 always covers both clusters. The "chaos"
// target runs the packaged crash-restart scenario; -faults replaces its
// schedule with a chaos script (see docs/ROBUSTNESS.md for the format).
// Every target that measures something also returns a report: -json DIR
// writes each one as DIR/BENCH_<name>.json (schema in EXPERIMENTS.md),
// which cmd/benchcheck ratchets against baselines/. The -json directory
// must exist, the -metrics and -trace files are created, -perqp needs
// -metrics, and -faults needs the chaos target among those run, all
// before any target runs; a failed check exits 2.
//
// -metrics dumps the cluster-wide metric registry (per-verb posted and
// completion counters, PCIe transaction counts, NIC cache hit rates,
// latency histograms) after all targets run. -trace records every
// request's lifecycle as spans and writes Chrome trace_event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. See
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"herdkv/internal/cluster"
	"herdkv/internal/experiments"
	"herdkv/internal/fault"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

func main() {
	clusterName := flag.String("cluster", "apt", "cluster preset: apt or susitna")
	warmupUS := flag.Int("warmup", 150, "warmup window (simulated microseconds)")
	spanUS := flag.Int("span", 400, "measurement window (simulated microseconds)")
	list := flag.Bool("list", false, "list available targets and exit")
	metricsFile := flag.String("metrics", "", "write a metrics dump to this file after the targets run")
	traceFile := flag.String("trace", "", "write request-lifecycle spans as Chrome trace_event JSON to this file")
	perQP := flag.Bool("perqp", false, "with -metrics: also keep per-queue-pair posted counters")
	faultsFile := flag.String("faults", "", "chaos script for the chaos target (overrides the packaged scenario)")
	jsonDir := flag.String("json", "", "write each run target's report as BENCH_<name>.json into this directory")
	flag.Parse()

	// A zero or negative window would run every target and report
	// all-zero rates (and overwrite BENCH_*.json with them).
	if *warmupUS < 0 {
		flagError("warmup", *warmupUS, "must be at least 0")
	}
	if *spanUS < 1 {
		flagError("span", *spanUS, "must be at least 1")
	}
	// Per-QP counters are visible only in the metrics dump.
	if *perQP && *metricsFile == "" {
		flagError("perqp", *perQP, "needs -metrics, the only output that shows per-QP counters")
	}

	experiments.Warmup = sim.Time(*warmupUS) * sim.Microsecond
	experiments.Span = sim.Time(*spanUS) * sim.Microsecond

	var sink *telemetry.Sink
	if *metricsFile != "" || *traceFile != "" {
		sink = telemetry.New()
		sink.PerQP = *perQP
		if *traceFile != "" {
			sink.Tracer = telemetry.NewTracer()
		}
		cluster.SetDefaultTelemetry(sink)
	}

	var spec cluster.Spec
	switch strings.ToLower(*clusterName) {
	case "apt":
		spec = cluster.Apt()
	case "susitna":
		spec = cluster.Susitna()
	default:
		fmt.Fprintf(os.Stderr, "unknown cluster %q (want apt or susitna)\n", *clusterName)
		os.Exit(2)
	}

	if *list {
		for _, t := range experiments.Targets {
			fmt.Println(t.Name)
		}
		return
	}

	// Resolve every name (and the -faults script) before running
	// anything, so a typo fails fast instead of after a long target.
	var targets []experiments.Target
	if want := flag.Args(); len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		targets = experiments.Targets
	} else {
		for _, name := range want {
			t, ok := experiments.FindTarget(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown target %q; -list shows options\n", name)
				os.Exit(2)
			}
			targets = append(targets, t)
		}
	}
	// Check every output destination, and that -faults has a target,
	// before running anything: a bad path must not cost a full run.
	if *jsonDir != "" {
		if fi, err := os.Stat(*jsonDir); err != nil || !fi.IsDir() {
			flagError("json", *jsonDir, "not a directory")
		}
	}
	for _, out := range []struct{ flag, path string }{{"metrics", *metricsFile}, {"trace", *traceFile}} {
		if out.path != "" {
			f, err := os.Create(out.path)
			if err != nil {
				flagError(out.flag, out.path, err.Error())
			}
			f.Close()
		}
	}
	if *faultsFile != "" && !slices.ContainsFunc(targets, func(t experiments.Target) bool { return t.Name == "chaos" }) {
		flagError("faults", *faultsFile, "applies only to the chaos target, which is not run")
	}
	var faults *fault.Schedule
	if *faultsFile != "" {
		script, err := os.ReadFile(*faultsFile)
		if err == nil {
			faults, err = fault.ParseSchedule(string(script))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	for _, t := range targets {
		if t.Name == "chaos" && faults != nil {
			t.Run = func(spec cluster.Spec) (*experiments.Table, *experiments.Report) {
				return experiments.Chaos(spec, faults, 1)
			}
		}
		start := time.Now()
		tbl, rep := t.Run(spec)
		if *jsonDir != "" && rep != nil {
			writeFile(filepath.Join(*jsonDir, "BENCH_"+rep.Name+".json"), rep.WriteJSON)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("  [%s generated in %.1fs]\n\n", t.Name, time.Since(start).Seconds())
	}

	if *metricsFile != "" {
		writeFile(*metricsFile, sink.Registry.WriteText)
	}
	if *traceFile != "" {
		writeFile(*traceFile, sink.Tracer.WriteChromeTrace)
	}
}

// flagError reports a bad -name flag value on one stderr line and
// exits 2.
func flagError(name string, value any, reason string) {
	fmt.Fprintf(os.Stderr, "herdbench: -%s %v: %s\n", name, value, reason)
	os.Exit(2)
}

// writeFile writes one artifact via the given writer function; a write
// or close failure exits 1.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
