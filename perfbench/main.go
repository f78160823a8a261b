// Command perfbench is the repository's benchmark. It runs one workload as a
// single process: J loopback netexec workers serve one netexec.Session, and
// one closed-loop client keeps one op in flight through it. Every result is
// checked against an oracle written here; a mismatch fails the run. The last
// line of standard output is one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1); the line before it carries
// details: the tail percentile and sample count, the host-noise spin and the
// individual set-up times.
//
// Build and run it from the repository root with
//
//	python3 perfbench/run.py --workload band-skew --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//   - band-skew: each op plans a band join (beta 3) of a fresh pair of Zipf
//     z=0.5 relations with CSIO and executes it over the session on the merge
//     engine. The planner dominates it.
//   - multiway-chain: each op runs R1 ⋈band(1) Mid.A, then Mid.B ⋈equi R3
//     over uniform keys, on the peer path with stats-deferred CSIO for stage 2
//     (hash engine, worker-to-worker intermediate).
//   - stream-drift: continuous band(25) joins of 20k-key windows against a
//     200k-key base; the windows flip between a wide and a narrow key range
//     every 25 windows, so the drift detector replans and re-ships the base.
//     An op is one window, timed from the previous window's result to its
//     own. Windows are held in memory, so a run is a sequence of 250-window
//     streams; each stream's open, first plan, base ship and first window are
//     not ops.
//
// A run is a fixed count of ops, opsPerSecond × -seconds, so the exact
// metrics (network_tuples_per_input, makespan_imbalance, core.est_error,
// multiway.intermediate_per_input, streamjoin.replans) repeat bit for bit for
// a seed. Inputs come from (seed, op index) and are generated outside the
// timed region. Tuning used seeds 1 to 10; seed 104729 is held out for
// checking later claims.
//
// setup_s is the median of setupReps set-ups, each a fleet start, session
// dial and the warm-up ops (for stream-drift a short warm-up stream, which
// opens a stream, plans and ships the base); the warm-up results are checked
// after the set-up clock stops, and the last set-up's fleet runs the timed
// loop. alloc_bytes_per_op is the median over ops of the process-wide
// heap allocation during the op (the TotalAlloc counter, read through
// runtime/metrics). Failures are reported as succeeded_op_share, so that no
// end-to-end metric reads 0.
//
// With -trace 1 the timed loop runs untraced and then its first third again,
// on the same inputs, traced: spans from the wrapped Runtime, StageRuntime and
// StreamHandle and from out-of-band calls into the layers are kept in memory
// and written to -trace-dir when the run ends. Per-layer times are medians of
// span self times. The core layer is measured on every workload (out of band
// for multiway-chain and stream-drift; core.est_error not on stream-drift);
// exec, netexec.wire_overhead_ms, localjoin and cost on band-skew; multiway
// and netexec.runstages_ms on multiway-chain; streamjoin on stream-drift. A
// metric a workload does not measure reports 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workers is J, fixed per workload so the exact metrics do not change with
// the machine the benchmark runs on.
const workers = 2

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// size scales a workload.
type size struct {
	rows         int     // rows per relation; the base's rows for stream-drift
	opsPerSecond float64 // timed ops per second of -seconds
	warmups      int     // warm-up ops per set-up (band-skew, multiway-chain)
	windows      int     // windows per stream (stream-drift)
	windowRows   int     // rows per window (stream-drift)
}

var sizes = map[string]size{
	"band-skew":      {rows: 200_000, opsPerSecond: 14, warmups: 2},
	"multiway-chain": {rows: 200_000, opsPerSecond: 5, warmups: 2},
	"stream-drift":   {rows: 200_000, opsPerSecond: 350, windows: 250, windowRows: 20_000},
}

type workload interface {
	// warm runs the warm-up ops that end a set-up and returns the check of
	// their results, which runs once the set-up clock has stopped.
	warm(f *fleet) (check func() error, err error)
	// loop runs at least n timed ops, traced when tr is non-nil.
	loop(f *fleet, n int, tr *tracer) (*loopStats, *layerVals, error)
}

func newWorkload(name string, sz size, seed uint64) workload {
	switch name {
	case "band-skew":
		return newBandSkew(sz, seed)
	case "multiway-chain":
		return newMultiwayChain(sz, seed)
	default:
		return newStreamDrift(sz, seed)
	}
}

type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_tuples_per_s", "tuples/s"},
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "bytes"},
	{"network_tuples_per_input", "ratio"},
	{"makespan_imbalance", "ratio"},
	{"succeeded_op_share", "ratio"},
}

var perLayerMetrics = []metricSpec{
	{"core.plan_ms", "ms"},
	{"core.stats_ms", "ms"},
	{"core.histalg_ms", "ms"},
	{"core.est_error", "ratio"},
	{"exec.shuffle_ms", "ms"},
	{"exec.local_run_ms", "ms"},
	{"exec.runjob_ms", "ms"},
	{"netexec.wire_overhead_ms", "ms"},
	{"netexec.runstages_ms", "ms"},
	{"netexec.relayed_pairs", "count"},
	{"netexec.overlapped_stage2", "count"},
	{"netexec.build_overlapped_chunks", "count"},
	{"localjoin.busy_max_ms", "ms"},
	{"localjoin.busy_mean_ms", "ms"},
	{"localjoin.measured_imbalance", "ratio"},
	{"cost.fit_wi", "ns/tuple"},
	{"cost.fit_wo", "ns/tuple"},
	{"cost.max_residual", "ratio"},
	{"multiway.stage1_plan_ms", "ms"},
	{"multiway.stage2_replan_ms", "ms"},
	{"multiway.stage1_ms", "ms"},
	{"multiway.stage2_ms", "ms"},
	{"multiway.intermediate_per_input", "ratio"},
	{"streamjoin.driver_ms", "ms"},
	{"streamjoin.collect_wait_ms", "ms"},
	{"streamjoin.base_ship_ms", "ms"},
	{"streamjoin.replan_ms", "ms"},
	{"streamjoin.replans", "count"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.spin_ms", "ms"},
}

// spanMetrics maps span names to the per-layer metric their median self time
// reports.
var spanMetrics = map[string]string{
	"core.plan":               "core.plan_ms",
	"exec.runjob":             "exec.runjob_ms",
	"netexec.runstages":       "netexec.runstages_ms",
	"multiway.stage1":         "multiway.stage1_ms",
	"multiway.stage2_replan":  "multiway.stage2_replan_ms",
	"multiway.stage2":         "multiway.stage2_ms",
	"streamjoin.driver":       "streamjoin.driver_ms",
	"streamjoin.collect_wait": "streamjoin.collect_wait_ms",
	"streamjoin.base_ship":    "streamjoin.base_ship_ms",
	"streamjoin.replan":       "streamjoin.replan_ms",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is one run's outcome.
type measurement struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64 // nil unless traced
	detail            map[string]any
}

// run measures one workload: set-up, the untraced loop and, when traced, the
// traced loop, with the host-noise spin before and after.
func run(name string, sz size, seed uint64, seconds int, traced bool, traceOut string) (*measurement, error) {
	spinBefore := spinMS()
	w := newWorkload(name, sz, seed)
	var f *fleet
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(workers); err != nil {
			return nil, err
		}
		check, err := w.warm(f)
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
			err = check()
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	defer f.close()

	n := max(1, int(math.Round(sz.opsPerSecond*float64(seconds))))
	ls, _, err := w.loop(f, n, nil)
	if err != nil {
		return nil, err
	}
	lat := ls.latencies()
	_, tailPct := tail(lat)
	m := &measurement{
		attempted: ls.attempted,
		failed:    ls.failed,
		endToEnd:  endToEnd(ls, medianOf(setups)),
		detail: map[string]any{
			"workload": name, "seed": seed, "ops": ls.attempted,
			"latency_tail_pct": tailPct, "latency_samples": len(lat), "setup_s_samples": setups,
		},
	}
	if traced {
		tr := newTracer()
		tls, lv, err := w.loop(f, max(1, n/3), tr)
		if err != nil {
			return nil, err
		}
		m.perLayer = perLayer(ls, tls, lv, tr)
		if traceOut != "" {
			if err := tr.write(traceOut); err != nil {
				return nil, err
			}
		}
	}
	spinAfter := spinMS()
	m.detail["host.spin_ms"] = []float64{spinBefore, spinAfter}
	if traced {
		m.perLayer["host.spin_ms"] = (spinBefore + spinAfter) / 2
	}
	return m, nil
}

// perLayer assembles the per-layer metrics from the untraced loop (GC and
// session counters), the traced loop's out-of-band values and its spans.
func perLayer(plain, traced *loopStats, lv *layerVals, tr *tracer) map[string]float64 {
	v := make(map[string]float64)
	for name, s := range lv.samples {
		v[name] = medianOf(s)
	}
	for name, x := range lv.exact {
		v[name] = x
	}
	for name, self := range tr.selfMS() {
		if m, ok := spanMetrics[name]; ok {
			v[m] = medianOf(self)
		}
	}
	att := float64(plain.attempted)
	v["netexec.relayed_pairs"] = float64(plain.counters.relayed)
	v["netexec.overlapped_stage2"] = float64(plain.counters.overlappedStage2)
	v["netexec.build_overlapped_chunks"] = float64(plain.counters.buildOverlapped)
	v["go.gc_cycles_per_op"] = float64(plain.gcCycles) / att
	v["go.gc_pause_ms_per_op"] = float64(plain.gcPauseNs) / 1e6 / att
	p50 := median(plain.latencies())
	v["trace.overhead_pct"] = 100 * (median(traced.latencies()) - p50) / p50
	return v
}

func main() {
	name := flag.String("workload", "", "band-skew, multiway-chain or stream-drift")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "run length: the op count is the workload's ops per second times this")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", "", "with -trace 1, write the spans to trace-<workload>-seed<seed>.jsonl in this directory")
	flag.Parse()
	sz, ok := sizes[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload band-skew|multiway-chain|stream-drift, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	traceOut := ""
	if *traceDir != "" {
		traceOut = filepath.Join(*traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
	}
	m, err := run(*name, sz, *seed, *seconds, *trace == 1, traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var bad mismatch
		if errors.As(err, &bad) {
			printJSON(result{Correct: false, Attempted: 1, Metrics: map[string]metricValue{}})
		}
		os.Exit(1)
	}
	specs, values := endToEndMetrics, m.endToEnd
	if *trace == 1 {
		specs, values = perLayerMetrics, m.perLayer
	}
	res := result{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{values[s.name], s.unit}
	}
	printJSON(m.detail)
	printJSON(res)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
