package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
)

// bandSkew is the paper's core case: each op takes a fresh pair of Zipf
// relations and runs a band join planned by CSIO and executed over the
// session on the merge engine.
type bandSkew struct {
	size   size
	seed   uint64
	zipf   *zipf
	r1, r2 []join.Key
	s1, s2 []join.Key // oracle scratch
	warmR  [][2][]join.Key
}

const (
	bandZipf = 0.5
	bandBeta = 3
)

var bandCond = join.NewBand(bandBeta)

func newBandSkew(sz size, seed uint64) *bandSkew {
	b := &bandSkew{size: sz, seed: seed, zipf: newZipf(sz.rows, bandZipf)}
	b.r1 = make([]join.Key, sz.rows)
	b.r2 = make([]join.Key, sz.rows)
	b.s1 = make([]join.Key, sz.rows)
	b.s2 = make([]join.Key, sz.rows)
	for w := 0; w < sz.warmups; w++ {
		r1, r2 := make([]join.Key, sz.rows), make([]join.Key, sz.rows)
		b.fill(warmOp+w, r1, r2)
		b.warmR = append(b.warmR, [2][]join.Key{r1, r2})
	}
	return b
}

func (b *bandSkew) fill(op int, r1, r2 []join.Key) {
	rng := opRNG(b.seed, op, 0)
	b.zipf.fill(r1, rng)
	b.zipf.fill(r2, rng)
}

func (b *bandSkew) opts() core.Options {
	return core.Options{J: workers, Model: cost.DefaultBand, Seed: b.seed}
}

func (b *bandSkew) cfg() exec.Config {
	return exec.Config{Seed: b.seed, Engine: exec.EngineMerge}
}

// query is one op: plan, then execute through rt. runOver is the execution
// call's duration.
func (b *bandSkew) query(rt exec.Runtime, r1, r2 []join.Key, tr *tracer, root int) (
	plan *core.Plan, res *exec.Result, runOver time.Duration, err error) {

	id := tr.begin("core.plan", root)
	plan, err = core.PlanCSIO(r1, r2, bandCond, b.opts())
	tr.end(id)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("plan: %w", err)
	}
	id = tr.begin("exec.run_over", root)
	if trt, ok := rt.(*tracedRuntime); ok {
		trt.parent = id
	}
	t0 := time.Now()
	res, err = exec.RunOver(rt, r1, r2, bandCond, plan.Scheme, cost.DefaultBand, b.cfg())
	runOver = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("execute: %w", err)
	}
	return plan, res, runOver, nil
}

func (b *bandSkew) want(r1, r2 []join.Key) int64 {
	b.s1, b.s2 = sortedCopies(b.s1, r1, b.s2, r2)
	return bandCount(b.s1, b.s2, bandBeta)
}

func (b *bandSkew) warm(f *fleet) (func() error, error) {
	outs := make([]int64, len(b.warmR))
	for w, r := range b.warmR {
		_, res, _, err := b.query(f.sess, r[0], r[1], nil, -1)
		if err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", w, err)
		}
		outs[w] = res.Output
	}
	return func() error {
		for w, r := range b.warmR {
			if err := check("warm-up output", w, outs[w], b.want(r[0], r[1])); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (b *bandSkew) loop(f *fleet, n int, tr *tracer) (*loopStats, *layerVals, error) {
	var rt exec.Runtime = f.sess
	if tr != nil {
		rt = &tracedRuntime{Session: f.sess, tr: tr}
	}
	lv := newLayerVals()
	var estErr, maxWork, busyMax, busyMean float64
	var obs []cost.Run
	ls := &loopStats{attempted: n}
	c0, g0 := f.counters(), readGC()
	for i := 0; i < n; i++ {
		b.fill(i, b.r1, b.r2)
		tr.setOp(i)
		root := tr.begin("op", -1)
		a0, t0 := heapAllocs(), time.Now()
		plan, res, runOver, err := b.query(rt, b.r1, b.r2, tr, root)
		lat, alloc := time.Since(t0), heapAllocs()-a0
		tr.end(root)
		if err != nil {
			ls.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			continue
		}
		want := b.want(b.r1, b.r2)
		if err := check("output", i, res.Output, want); err != nil {
			return nil, nil, err
		}
		ls.loopMS += ms(lat)
		ls.ops = append(ls.ops, opStat{ms: ms(lat), tuples: int64(2 * b.size.rows), shipped: res.NetworkTuples,
			maxW: res.MaxWork, meanW: res.TotalWork / float64(workers), alloc: alloc})
		if tr == nil {
			continue
		}
		// Out-of-band layer calls on the same inputs and plan.
		estErr += math.Abs(plan.EstimatedMaxWeight - res.MaxWork)
		maxWork += res.MaxWork
		lv.add("core.stats_ms", ms(plan.StatsDuration))
		lv.add("core.histalg_ms", ms(plan.HistAlgDuration))

		id := tr.begin("exec.shuffle_pair", -1)
		t := time.Now()
		k1, k2 := exec.ShufflePair(b.r1, b.r2, plan.Scheme, b.cfg())
		lv.add("exec.shuffle_ms", ms(time.Since(t)))
		tr.end(id)
		var total int64
		var hi, sum float64
		j := float64(k1.Workers())
		for w := 0; w < k1.Workers(); w++ {
			in := len(k1.Worker(w)) + len(k2.Worker(w))
			id := tr.begin("localjoin.count_owned", -1)
			t := time.Now()
			c := exec.CountOwned(exec.EngineMerge, k1.Worker(w), k2.Worker(w), bandCond)
			busy := time.Since(t)
			tr.end(id)
			total += c
			hi, sum = max(hi, ms(busy)), sum+ms(busy)
			obs = append(obs, cost.Run{Input: float64(in), Output: float64(c), Seconds: busy.Seconds()})
		}
		k1.Release()
		k2.Release()
		if err := check("per-shard count total", i, total, want); err != nil {
			return nil, nil, err
		}
		busyMax += hi
		busyMean += sum / j
		lv.add("localjoin.busy_max_ms", hi)
		lv.add("localjoin.busy_mean_ms", sum/j)

		id = tr.begin("exec.local_run", -1)
		t = time.Now()
		local, err := exec.RunOver(exec.Local{}, b.r1, b.r2, bandCond, plan.Scheme, cost.DefaultBand, b.cfg())
		localDur := time.Since(t)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("op %d: local execute: %w", i, err)
		}
		if err := check("local output", i, local.Output, want); err != nil {
			return nil, nil, err
		}
		lv.add("exec.local_run_ms", ms(localDur))
		lv.add("netexec.wire_overhead_ms", ms(runOver-localDur))
	}
	ls.addGC(g0, readGC())
	ls.counters = f.counters().sub(c0)
	if tr != nil {
		lv.set("core.est_error", estErr/maxWork)
		lv.set("localjoin.measured_imbalance", busyMax/busyMean)
		if err := lv.setCostFit(obs); err != nil {
			return nil, nil, err
		}
	}
	return ls, lv, nil
}
