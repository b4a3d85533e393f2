// Command bench is herdkv's benchmark: four workloads, each reporting
// end-to-end metrics (modeled Mops and µs from the simulation, the
// simulator's own allocations, live heap and set-up time) or, with
// -trace 1, per-layer metrics that attribute them. It drives the stack
// only through exported functions and times those calls from outside.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload herd-read --seed 1 --seconds 10 --trace 0
//
// or, inside bench/, go run . -workload all. Every metric is printed as
// "workload metric value unit"; the last line is one JSON object with
// the keys correct, attempted, failed and metrics. Every GET hit is
// checked against the only value ever written to its key, and a
// mismatch makes the command exit 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"

	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// options parameterize one workload run.
type options struct {
	seed   int64
	window sim.Time // measured window (virtual time)
	// setups is the least number of set-ups timed; more are timed until
	// setupSeconds of set-up time is covered (at most maxSetups), so a
	// short set-up is sampled often enough for a steady median. The
	// last set-up is the one measured.
	setups       int
	setupSeconds float64
	chunks       int  // slices of the window host time is sampled over
	trace        bool // report per-layer metrics instead of end-to-end ones
	// sloProbe is each slo_mops probe's measured window.
	sloProbe sim.Time
	// traceDir, if set, receives <workload>.trace.json and
	// <workload>.metrics.txt from the traced run.
	traceDir string
}

// report is one workload run's outcome.
type report struct {
	workload               string
	metrics                []metric // in catalog order
	values                 map[string]float64
	attempted, failed      uint64
	checked, verifyErrors  uint64
	getSamples, putSamples int
}

func (r *report) correct() bool { return r.verifyErrors == 0 }

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: herd-read, fleet-write, hot-cached, mux-open or all")
		seed     = flag.Int64("seed", 1, "seed the op streams are generated from")
		seconds  = flag.Int("seconds", 10, "measured window, in seconds of wall time on a 2-core x86 host (the virtual window per second is fixed per workload)")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from counters and a traced re-run; 0 reports end-to-end metrics")
		traceDir = flag.String("trace-dir", "", "with -trace 1, write <workload>.trace.json and <workload>.metrics.txt here")
		out      = flag.String("out", "", "append each run's result as one JSON line to this file")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fail(2, "bench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
	}
	if *name == "all" {
		os.Exit(runAll())
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(2, "bench: %v", err)
	}
	o := options{
		seed: *seed, window: w.perSecond * sim.Time(*seconds), setups: 5, setupSeconds: 2, chunks: 20,
		trace: *trace == 1, sloProbe: sim.Millisecond, traceDir: *traceDir,
	}
	rep, err := run(w, o)
	if err != nil {
		fail(1, "bench: %v", err)
	}
	line, err := rep.json()
	if err != nil {
		fail(1, "bench: %v", err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := appendRecord(*out, rep, *seed, o.trace); err != nil {
			fail(1, "bench: %v", err)
		}
	}
	fmt.Println(string(line))
	if !rep.correct() {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d GET values did not match their key\n", rep.workload, rep.verifyErrors, rep.checked)
		os.Exit(1)
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// runAll runs every workload in its own child process, so each one's
// peak RSS is its own, passing the remaining flags through.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// maxSetups bounds the set-ups one run times.
const maxSetups = 25

// run sets w up several times, measures the last set-up's window and,
// with o.trace, re-runs a twentieth of the window traced.
func run(w *workloadSpec, o options) (*report, error) {
	var setups []phases
	var s *session
	var checked, verifyErrors uint64
	for timed := 0.0; len(setups) < maxSetups && (len(setups) < o.setups || timed < o.setupSeconds); {
		if s != nil {
			checked, verifyErrors = checked+s.d.checked, verifyErrors+s.d.verifyErrors
			s = nil
			runtime.GC() // so set-ups do not stack up in the peak RSS
		}
		var err error
		if s, err = newSession(w, o.seed, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup)
		timed += s.setup.total()
	}
	win := s.measure(o.window, o.chunks)
	s.d.stopped = true
	checked, verifyErrors = checked+s.d.checked, verifyErrors+s.d.verifyErrors

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	rep := &report{
		workload: w.name, attempted: win.ops(), failed: win.tally.failed,
		getSamples: len(win.tally.getLat), putSamples: len(win.tally.putLat),
	}
	if !o.trace {
		// The live heap after the window: the deployment and what the
		// window left behind, without the collector's overshoot.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		rep.metrics, rep.values = endToEnd, endToEndValues(win, setups, float64(ms.HeapAlloc)/(1<<20))
	} else {
		runtime.GC()
		tel := &telemetry.Sink{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}
		ts, err := newSession(w, o.seed, tel, 0)
		if err != nil {
			return nil, err
		}
		mark := tel.Tracer.SpanCount()
		tw := ts.measure(o.window/20, o.chunks)
		ts.d.stopped = true
		checked, verifyErrors = checked+ts.d.checked, verifyErrors+ts.d.verifyErrors
		spans := tel.Tracer.SpansSince(mark)
		if o.traceDir != "" {
			if err := writeTrace(o.traceDir, w.name, tel); err != nil {
				return nil, err
			}
		}
		var slo float64
		if w.name == "mux-open" {
			if slo, err = sloSearch(w, o.seed, o.sloProbe); err != nil {
				return nil, err
			}
		}
		rep.metrics, rep.values = perLayer, perLayerValues(win, tw, spans, setups, slo, rss)
	}
	rep.checked, rep.verifyErrors = checked, verifyErrors
	return rep, nil
}

// SLO of the open-loop workload: GET p99 at most 10 µs, no failed op,
// and a backlog that is not growing.
const sloGetP99US = 10

// sloSearch bisects the open-loop rate over 5-40 Mops down to 0.25 Mops
// for the highest rate meeting the SLO over a probe-long window.
func sloSearch(w *workloadSpec, seed int64, probe sim.Time) (float64, error) {
	lo, hi := 5.0, 40.0
	for hi-lo > 0.25 {
		mid := (lo + hi) / 2
		s, err := newSession(w, seed, nil, mid*1e6)
		if err != nil {
			return 0, err
		}
		win := s.measure(probe, 2)
		s.d.stopped = true
		ok := win.tally.failed == 0 &&
			percentileUS(win.tally.getLat, 0.99) <= sloGetP99US &&
			float64(win.backlogEnd) <= 1.1*float64(win.backlogMid)+64
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// peakRSSMB returns the process's peak resident set in MB (ru_maxrss,
// which Linux reports in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

func writeTrace(dir, name string, tel *telemetry.Sink) error {
	write := func(file string, fn func(*os.File) error) error {
		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", file, err)
		}
		return f.Close()
	}
	if err := write(name+".trace.json", func(f *os.File) error { return tel.Tracer.WriteChromeTrace(f) }); err != nil {
		return err
	}
	return write(name+".metrics.txt", func(f *os.File) error { return tel.Registry.WriteText(f) })
}

// value is one metric in the JSON result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *report) result() result {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = value{r.values[m.name], m.unit}
	}
	return res
}

func (r *report) json() ([]byte, error) { return json.Marshal(r.result()) }

// print writes every metric as "workload metric value unit", then the
// verification and sample counts.
func (r *report) print(f io.Writer) {
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(f, "%s %s %s %s\n", r.workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	for _, m := range r.metrics {
		line(m.name, r.values[m.name], m.unit)
	}
	line("get_samples", float64(r.getSamples), "count")
	line("put_samples", float64(r.putSamples), "count")
	line("attempted", float64(r.attempted), "count")
	line("failed", float64(r.failed), "count")
	line("verify_checked", float64(r.checked), "count")
	line("verify_errors", float64(r.verifyErrors), "count")
}

// appendRecord appends the run's result, labelled with its workload,
// seed and mode, as one JSON line; bench/compare reads these files.
func appendRecord(path string, r *report, seed int64, trace bool) error {
	rec := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
		result
	}{r.workload, seed, trace, r.result()}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
