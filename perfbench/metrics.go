package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"ewh/internal/cost"
)

// opStat is one successful timed op.
type opStat struct {
	ms      float64 // latency
	tuples  int64   // input tuples
	shipped int64   // tuples shipped to workers
	maxW    float64 // modeled max worker weight
	meanW   float64 // modeled mean worker weight
	alloc   uint64  // bytes the process allocated during the op
}

// loopStats is one timed loop: its ops, failures, and the process-wide GC
// deltas over it.
type loopStats struct {
	ops       []opStat
	attempted int
	failed    int
	loopMS    float64 // the loop's timed wall time: the sum of op intervals
	gcCycles  uint32
	gcPauseNs uint64
	counters  counters
}

// gcSnap brackets a loop with runtime.MemStats.
type gcSnap struct {
	pauseNs uint64
	cycles  uint32
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{ms.PauseTotalNs, ms.NumGC}
}

func (ls *loopStats) addGC(from, to gcSnap) {
	ls.gcCycles += to.cycles - from.cycles
	ls.gcPauseNs += to.pauseNs - from.pauseNs
}

// allocSample is read by the single client goroutine only.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the process's cumulative heap allocation in bytes, the
// count runtime.MemStats.TotalAlloc reports, without stopping the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func (ls *loopStats) latencies() []float64 {
	lat := make([]float64, len(ls.ops))
	for i, o := range ls.ops {
		lat[i] = o.ms
	}
	slices.Sort(lat)
	return lat
}

// median of an ascending slice (0 when empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

func medianOf(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return median(s)
}

// tail returns the highest percentile of an ascending slice that has at least
// ten samples beyond it, and that percentile; with fewer than eleven samples
// it is the maximum.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := n - 10 // 1-based rank of the reported sample
	if rank < 1 {
		rank = n
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n)
}

// endToEnd derives the end-to-end metrics of an untraced loop.
func endToEnd(ls *loopStats, setupS float64) map[string]float64 {
	lat := ls.latencies()
	tailMS, _ := tail(lat)
	var tuples, shipped int64
	var maxW, meanW float64
	allocs := make([]float64, len(ls.ops))
	for i, o := range ls.ops {
		allocs[i] = float64(o.alloc)
		tuples += o.tuples
		shipped += o.shipped
		maxW += o.maxW
		meanW += o.meanW
	}
	att := float64(ls.attempted)
	return map[string]float64{
		"latency_p50_ms":           median(lat),
		"latency_tail_ms":          tailMS,
		"throughput_tuples_per_s":  float64(tuples) / (ls.loopMS / 1e3),
		"setup_s":                  setupS,
		"alloc_bytes_per_op":       medianOf(allocs),
		"network_tuples_per_input": float64(shipped) / float64(tuples),
		"makespan_imbalance":       maxW / meanW,
		"succeeded_op_share":       float64(ls.attempted-ls.failed) / att,
	}
}

var spinSink uint64

// spinMS times a fixed CPU-bound loop: a host-noise diagnostic recorded
// beside the results, never used to normalize them.
func spinMS() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<26; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return ms(time.Since(t0))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layerVals collects a traced loop's per-layer observations: samples are
// reported as their median, exact values as they are.
type layerVals struct {
	samples map[string][]float64
	exact   map[string]float64
}

func newLayerVals() *layerVals {
	return &layerVals{samples: make(map[string][]float64), exact: make(map[string]float64)}
}

func (l *layerVals) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layerVals) set(name string, v float64) { l.exact[name] = v }

// setCostFit fits the paper's cost model to per-shard (input, output,
// seconds) observations with cost.Calibrate. Calibrate reports weights
// normalized to wi = 1, so the common scale is fitted back by least squares
// to give both weights in nanoseconds per tuple; max_residual is the largest
// |predicted - measured| / measured over the observations.
func (l *layerVals) setCostFit(obs []cost.Run) error {
	m, err := cost.Calibrate(obs)
	if err != nil {
		return fmt.Errorf("cost fit: %w", err)
	}
	var num, den float64
	for _, o := range obs {
		w := m.Weight(o.Input, o.Output)
		num += w * o.Seconds
		den += w * w
	}
	scale := num / den
	var worst float64
	for _, o := range obs {
		worst = max(worst, math.Abs(scale*m.Weight(o.Input, o.Output)-o.Seconds)/o.Seconds)
	}
	l.set("cost.fit_wi", scale*m.Wi*1e9)
	l.set("cost.fit_wo", scale*m.Wo*1e9)
	l.set("cost.max_residual", worst)
	return nil
}
