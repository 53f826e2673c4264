// Command perfbench is the repository benchmark: three storage workloads
// driven by a single-goroutine closed-loop client, reporting end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// See README.md in this directory for the workloads and metrics.
//
//	perfbench --workload kv-churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before
// it records the run's configuration and sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"
)

// scenario is a workload's set-up plus the shape of its measured phase.
type scenario struct {
	setup           func(seed uint64, rec *recorder) (workload, error)
	prefixOps       int
	rebootEvery     int
	mountsPerReboot int
	setupReps       int
}

func kvScenario(c kvConfig) scenario {
	return scenario{
		setup:     func(seed uint64, rec *recorder) (workload, error) { return newKV(&c, seed, rec) },
		prefixOps: c.prefixOps, rebootEvery: c.rebootEvery, mountsPerReboot: c.mountsPerReboot, setupReps: c.setupReps,
	}
}

func frameScenario(c frameConfig) scenario {
	return scenario{
		setup:     func(seed uint64, rec *recorder) (workload, error) { return newFrame(&c, seed, rec) },
		prefixOps: c.prefixFrames, rebootEvery: c.rebootEvery, mountsPerReboot: 1, setupReps: c.setupReps,
	}
}

var scenarios = map[string]scenario{
	"kv-churn":       kvScenario(kvChurn),
	"frame-capture":  frameScenario(frameCapture),
	"kv-scan-reboot": kvScenario(kvScanReboot),
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info     map[string]any
	failures []string
}

func main() {
	name := flag.String("workload", "", "workload: kv-churn, frame-capture or kv-scan-reboot")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	sc, ok := scenarios[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = runUntraced(sc, *seed, time.Duration(*seconds*float64(time.Second)))
	} else {
		rep, err = runTraced(sc, *seed, fmt.Sprintf(".bench_build/trace/%s-%d.tsv.gz", *name, *seed))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "failure:", f)
	}
	rep.info["workload"] = *name
	rep.info["seed"] = *seed
	rep.info["trace"] = *trace
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["num_cpu"] = runtime.NumCPU()
	rep.info["go_version"] = runtime.Version()
	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	fmt.Println(string(out))
}

// setupTimed runs the set-up reps times and returns the last workload and
// every set-up's duration. Collecting the previous device first keeps its
// garbage out of the next timing.
func setupTimed(sc scenario, seed uint64, reps int) (workload, []float64, error) {
	var w workload
	var times []float64
	for r := 0; r < reps; r++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = sc.setup(seed, nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, times, nil
}

// runUntraced times set-up, then runs the deterministic prefix and keeps
// going until the measured phase has lasted d.
func runUntraced(sc scenario, seed uint64, d time.Duration) (*report, error) {
	w, setups, err := setupTimed(sc, seed, sc.setupReps)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m := newMeter()
	dm := drive(w, m, sc.prefixOps, sc.rebootEvery, sc.mountsPerReboot, time.Now().Add(d))
	rep := &report{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, failures: m.failures,
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"ops_per_s":           {m.opsPerSec(), "1/s"},
			"write_host_us_p50":   {windowed(m.writeHost, median), "us"},
			"write_host_us_p90":   {windowed(m.writeHost, p90), "us"},
			"read_host_us_p50":    {windowed(m.readHost, median), "us"},
			"write_device_us_p99": {dm.writeDevP99, "us"},
			"device_us_per_op":    {dm.busyPerOpUs, "us"},
			"device_uj_per_op":    {dm.ujPerOp, "uJ"},
			"erases_per_kop":      {dm.erasesPerKop, "count/kop"},
			"max_wear_per_kop":    {dm.maxWearKop, "count/kop"},
			"space_amp":           {dm.spaceAmp, "ratio"},
		},
		info: map[string]any{
			"prefix_ops": dm.ops, "prefix_input_fingerprint": fmt.Sprintf("%016x", m.prefixFP),
			// Not an end-to-end metric: on kv-churn it moves by about
			// 20% between runs on a shared host.
			"mount_host_ms_median": median(m.mountHost),
			"samples": map[string]int{
				"setups": len(setups), "ops": len(m.opHost), "writes": len(m.writeHost),
				"reads": len(m.readHost), "mounts": len(m.mountHost), "prefix_writes": len(m.writeDevUs),
			},
		},
	}
	return rep, nil
}

// runTraced runs the deterministic prefix twice from the same seed: once
// untraced, once through the tracing backend and flash observer. The two
// must leave identical device, controller, store and FTL totals, and the
// traced run's ledger must reconcile with the device's stats. The spans
// are written to spansPath.
func runTraced(sc scenario, seed uint64, spansPath string) (*report, error) {
	w0, _, err := setupTimed(sc, seed, 1)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m0 := newMeter()
	dm0 := drive(w0, m0, sc.prefixOps, sc.rebootEvery, sc.mountsPerReboot, time.Time{})
	t0 := w0.totals()
	w0 = nil

	runtime.GC()
	rec := newRecorder()
	w1, err := sc.setup(seed, rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	base := snapshotLayers(w1)
	runtime.GC()
	m1 := newMeter()
	rec.on = true
	dm1 := drive(w1, m1, sc.prefixOps, sc.rebootEvery, sc.mountsPerReboot, time.Time{})
	rec.on = false
	t1 := w1.totals()
	delta := t1.Flash.Sub(base.flash)

	var problems []string
	equivalent := reflect.DeepEqual(t0, t1) && dm0 == dm1 && m0.prefixFP == m1.prefixFP
	if !equivalent {
		problems = append(problems, "traced and untraced runs left different totals")
	}
	if fw, ok := w1.(*frameWorkload); ok {
		rec.on = true
		err := replayFrames(seed, fw.cfg.warmupFrames, fw.frames, rec)
		rec.on = false
		if err != nil {
			problems = append(problems, err.Error())
		}
	}
	led := rec.ledger()
	if err := rec.reconcile(led, delta); err != nil {
		problems = append(problems, err.Error())
	}
	layers := perLayer(w1, base, led, rec, m1)
	layers["trace.throughput_ratio"] = metric{ratio(m1.opsPerSec(), m0.opsPerSec()), "ratio"}
	if err := rec.writeSpans(spansPath); err != nil {
		problems = append(problems, "writing spans: "+err.Error())
	}

	failed := m0.failed + m1.failed + len(problems)
	rep := &report{
		Correct: failed == 0, Attempted: m0.attempted + m1.attempted, Failed: failed,
		Metrics:  layers,
		failures: append(append(problems, m0.failures...), m1.failures...),
		info: map[string]any{
			"prefix_ops": dm1.ops, "prefix_input_fingerprint": fmt.Sprintf("%016x", m1.prefixFP),
			"spans": len(rec.spans), "spans_file": spansPath,
			"untraced_ops_per_s": m0.opsPerSec(), "traced_ops_per_s": m1.opsPerSec(),
			"equivalent_totals": equivalent,
		},
	}
	return rep, nil
}
