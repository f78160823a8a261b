package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file is the CI benchmark-regression gate: the workflow regenerates
// the engine benchmark and compares it against the committed
// BENCH_exec.json baseline, failing the build when a metric got worse than
// the tolerance allows. Correctness metrics (join output) must match
// exactly; cost metrics (wall time, network tuples, modeled makespan) may
// wobble up to the tolerance, which absorbs shared-runner noise.

// Regression is one benchmark metric that violated the gate.
type Regression struct {
	Row    string  // row name, e.g. "netexec-session-shuffle"
	Metric string  // "wall_ns", "output", "network_tuples", "max_work", "missing"
	Base   float64 // baseline value
	Cur    float64 // current value (0 for a missing row)
}

// Ratio returns cur/base (0 when the baseline value is 0).
func (r Regression) Ratio() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Cur / r.Base
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: row missing from current report", r.Row)
	}
	if r.Metric == "output" {
		return fmt.Sprintf("%s: output %v != baseline %v (correctness)", r.Row, r.Cur, r.Base)
	}
	return fmt.Sprintf("%s: %s %.0f vs baseline %.0f (%.2fx)", r.Row, r.Metric, r.Cur, r.Base, r.Ratio())
}

// LoadExecBench reads an ExecBenchReport from a JSON file written by
// WriteExecBenchJSON.
func LoadExecBench(path string) (*ExecBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep ExecBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &rep, nil
}

// CompareExecBench checks cur against base and returns every violation of
// the gate. maxRegress is the tolerated fractional increase for cost
// metrics (0.25 fails on >25% growth). Rules per baseline row, matched by
// name:
//
//   - row absent from cur: violation (coverage must not silently shrink;
//     rows new in cur are fine — they are new coverage)
//   - output: exact match (same seed and scale ⇒ the join result is
//     deterministic; any drift is a correctness bug, not noise)
//   - wall_ns, network_tuples, max_work: cur > base·(1+maxRegress) is a
//     violation; improvements and small wobble pass. wall_ns additionally
//     gets wallSlackNS of absolute headroom, so millisecond-scale rows on a
//     noisy shared runner can't fail the gate on scheduler jitter alone
//   - when both reports carry the CalibrationRow (a fixed spin no code
//     change affects), every baseline wall time is first scaled by the
//     calibration ratio, so a committed baseline recorded on one machine
//     gates runs on a differently-fast runner without tracking hardware;
//     the calibration row itself is exempt from the wall gate (it defines
//     the scale) but its deterministic Output stays exact-checked
//
// The reports must come from the same configuration; mismatched scale or
// seed is an error, not a regression.
func CompareExecBench(base, cur *ExecBenchReport, maxRegress float64) ([]Regression, error) {
	if base.Scale != cur.Scale || base.Seed != cur.Seed || base.GOMAXPROCS != cur.GOMAXPROCS {
		return nil, fmt.Errorf("bench: baseline (scale=%d seed=%d gomaxprocs=%d) and current (scale=%d seed=%d gomaxprocs=%d) configurations differ",
			base.Scale, base.Seed, base.GOMAXPROCS, cur.Scale, cur.Seed, cur.GOMAXPROCS)
	}
	curRows := make(map[string]ExecBenchRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curRows[r.Name] = r
	}
	speed := calibrationRatio(base, cur)
	var out []Regression
	limit := 1 + maxRegress
	for _, b := range base.Rows {
		c, ok := curRows[b.Name]
		if !ok {
			out = append(out, Regression{Row: b.Name, Metric: "missing", Base: float64(b.WallNS)})
			continue
		}
		if c.Output != b.Output {
			out = append(out, Regression{Row: b.Name, Metric: "output",
				Base: float64(b.Output), Cur: float64(c.Output)})
		}
		scaledBase := float64(b.WallNS) * speed
		if w := float64(c.WallNS); b.Name != CalibrationRow &&
			w > scaledBase*limit && w-scaledBase > wallSlackNS {
			out = append(out, Regression{Row: b.Name, Metric: "wall_ns",
				Base: scaledBase, Cur: w})
		}
		costMetrics := []struct {
			name      string
			base, cur float64
		}{
			{"network_tuples", float64(b.NetworkTuples), float64(c.NetworkTuples)},
			{"max_work", b.MaxWork, c.MaxWork},
		}
		for _, m := range costMetrics {
			if m.cur > m.base*limit {
				out = append(out, Regression{Row: b.Name, Metric: m.name, Base: m.base, Cur: m.cur})
			}
		}
	}
	return out, nil
}

// wallSlackNS is the absolute wall-time headroom on top of the relative
// gate: a row must be both >maxRegress slower AND more than this much
// slower to fail, so sub-10ms rows don't flake on scheduler jitter.
const wallSlackNS = 5_000_000

// calibrationRatio returns cur's machine speed relative to base as measured
// by the CalibrationRow (>1 means cur's machine is slower), clamped to
// [0.25, 4] so a pathological calibration can't scale the gate into
// meaninglessness. Reports without the row compare wall times unscaled.
func calibrationRatio(base, cur *ExecBenchReport) float64 {
	var b, c int64
	for _, r := range base.Rows {
		if r.Name == CalibrationRow {
			b = r.WallNS
		}
	}
	for _, r := range cur.Rows {
		if r.Name == CalibrationRow {
			c = r.WallNS
		}
	}
	if b <= 0 || c <= 0 {
		return 1
	}
	ratio := float64(c) / float64(b)
	if ratio < 0.25 {
		return 0.25
	}
	if ratio > 4 {
		return 4
	}
	return ratio
}

// gatesRow reports whether rep's gate covers a row of the given name —
// baseline rows are what CompareExecBench iterates, so a row present in the
// baseline is a row the gate passes verdicts on.
func gatesRow(rep *ExecBenchReport, name string) bool {
	for _, r := range rep.Rows {
		if r.Name == name {
			return true
		}
	}
	return false
}

// effectiveParallelism is the concurrency a report's recording actually
// delivered: min(physical CPUs, GOMAXPROCS). Zero when the report predates
// the cpus field.
func effectiveParallelism(r *ExecBenchReport) int {
	if r.CPUs == 0 {
		return 0
	}
	p := r.CPUs
	if r.GOMAXPROCS > 0 && r.GOMAXPROCS < p {
		p = r.GOMAXPROCS
	}
	return p
}

// CPUMismatchWarning describes a baseline whose effective parallelism
// differs from the report it gates. The calibration row rescales total
// machine speed, but it cannot rescale parallelism: a baseline recorded
// with GOMAXPROCS=4 on a 1-core container never saw the concurrent shuffle
// actually overlap, so its wall times compare apples to oranges against a
// genuine 4-core run — the mc4 baseline's history before it was re-anchored
// from a BENCH_current recording. Both shapes come from the
// reports' recorded cpus/gomaxprocs fields, so comparing two saved files on
// a third machine stays meaningful. Empty when the shapes agree or either
// report predates the cpus field.
func CPUMismatchWarning(base, cur *ExecBenchReport, path string) string {
	basePar, curPar := effectiveParallelism(base), effectiveParallelism(cur)
	if basePar == 0 || curPar == 0 || basePar == curPar {
		return ""
	}
	return fmt.Sprintf("WARNING: baseline %s was recorded at effective parallelism %d (cpus=%d, gomaxprocs=%d) "+
		"but this run delivers %d (cpus=%d, gomaxprocs=%d) — wall times compare different parallelism shapes "+
		"(calibration rescales speed, not cores); refresh the baseline from a run on matching hardware",
		path, basePar, base.CPUs, base.GOMAXPROCS, curPar, cur.CPUs, cur.GOMAXPROCS)
}

// CheckExecBenchAgainst loads the baseline at path, compares cur against it
// and writes one line per violation to w. It returns an error carrying the
// violation count when the gate fails — the ewhbench CLI and the CI job
// turn that into a nonzero exit. A baseline whose recorded CPU count
// differs from the running GOMAXPROCS gets a loud warning and an annotated
// gate line (see CPUMismatchWarning); the gate still runs — exact-output
// checks are hardware-independent — but its wall verdicts carry the caveat.
//
// Exception: when the baseline gates the StreamDriftRow, a parallelism
// mismatch is an ERROR, not a warning. The legacy rows predate the cpus
// field and tolerated envelope baselines, but the continuous-join row's
// wall and makespan only mean something when stream windows genuinely
// overlap across workers — a 1-core recording never saw that overlap, so
// gating it across shapes would certify numbers the recording could not
// have measured. The remedy is the documented BENCH_current
// artifact-promotion flow: re-anchor the baseline from a run on matching
// hardware (DESIGN.md, "Baseline promotion").
func CheckExecBenchAgainst(w io.Writer, cur *ExecBenchReport, path string, maxRegress float64) error {
	base, err := LoadExecBench(path)
	if err != nil {
		return err
	}
	warn := CPUMismatchWarning(base, cur, path)
	if warn != "" {
		fmt.Fprintf(w, "%s\n", warn)
		if gatesRow(base, StreamDriftRow) {
			return fmt.Errorf("bench: baseline %s gates the %s row at a different parallelism shape "+
				"(baseline %d, current %d): its wall/makespan verdicts require matching worker overlap; "+
				"re-anchor the baseline via the BENCH_current artifact-promotion flow",
				path, StreamDriftRow, effectiveParallelism(base), effectiveParallelism(cur))
		}
	}
	regs, err := CompareExecBench(base, cur, maxRegress)
	if err != nil {
		return err
	}
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION %s\n", r)
	}
	note := ""
	if warn != "" {
		note = fmt.Sprintf(" [baseline parallelism %d vs current %d: cross-hardware wall comparison]",
			effectiveParallelism(base), effectiveParallelism(cur))
	}
	if len(regs) > 0 {
		return fmt.Errorf("bench: %d metric(s) regressed beyond %.0f%% vs %s%s",
			len(regs), maxRegress*100, path, note)
	}
	fmt.Fprintf(w, "benchmark gate passed: no metric regressed beyond %.0f%% vs %s%s\n",
		maxRegress*100, path, note)
	return nil
}
