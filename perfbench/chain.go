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
	"ewh/internal/multiway"
)

// multiwayChain runs R1 ⋈band(1) Mid.A, then Mid.B ⋈equi R3 over uniform
// keys on the peer path: the intermediate moves worker to worker and stage 2
// is planned by CSIO from the workers' distributed summaries (Stage2Auto),
// joining on the hash engine.
type multiwayChain struct {
	size     size
	seed     uint64
	q        multiway.Query
	r1s, r3s []join.Key // oracle scratch
	warmQ    []multiway.Query
}

const chainBeta = 1

func newMultiwayChain(sz size, seed uint64) *multiwayChain {
	c := &multiwayChain{size: sz, seed: seed}
	c.q = c.newQuery()
	c.r1s = make([]join.Key, sz.rows)
	c.r3s = make([]join.Key, sz.rows)
	for w := 0; w < sz.warmups; w++ {
		q := c.newQuery()
		c.fill(warmOp+w, q)
		c.warmQ = append(c.warmQ, q)
	}
	return c
}

func (c *multiwayChain) newQuery() multiway.Query {
	n := c.size.rows
	return multiway.Query{
		R1:    make([]join.Key, n),
		Mid:   multiway.MidRelation{A: make([]join.Key, n), B: make([]join.Key, n)},
		R3:    make([]join.Key, n),
		CondA: join.NewBand(chainBeta),
		CondB: join.Equi{},
	}
}

func (c *multiwayChain) fill(op int, q multiway.Query) {
	rng := opRNG(c.seed, op, 1)
	span := int64(c.size.rows)
	for _, rel := range [][]join.Key{q.R1, q.Mid.A, q.Mid.B, q.R3} {
		fillUniform(rel, 0, span, rng)
	}
}

func (c *multiwayChain) opts() core.Options {
	return core.Options{J: workers, Model: cost.DefaultBand, Seed: c.seed}
}

func (c *multiwayChain) execute(rt exec.Runtime, q multiway.Query) (*multiway.Result, error) {
	return multiway.ExecuteOverStage2(rt, q, c.opts(), exec.Config{Seed: c.seed}, multiway.Stage2Auto)
}

// verify checks the final output and the intermediate size against the
// oracle.
func (c *multiwayChain) verify(op int, q multiway.Query, res *multiway.Result) error {
	c.r1s, c.r3s = sortedCopies(c.r1s, q.R1, c.r3s, q.R3)
	out, inter := chainCount(c.r1s, q.Mid.A, q.Mid.B, c.r3s, chainBeta)
	if err := check("intermediate", op, res.Intermediate, inter); err != nil {
		return err
	}
	return check("output", op, res.Output, out)
}

func (c *multiwayChain) warm(f *fleet) (func() error, error) {
	results := make([]*multiway.Result, len(c.warmQ))
	for w, q := range c.warmQ {
		res, err := c.execute(f.sess, q)
		if err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", w, err)
		}
		results[w] = res
	}
	return func() error {
		for w, q := range c.warmQ {
			if err := c.verify(w, q, results[w]); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (c *multiwayChain) loop(f *fleet, n int, tr *tracer) (*loopStats, *layerVals, error) {
	var rt exec.Runtime = f.sess
	var trt *tracedRuntime
	if tr != nil {
		trt = &tracedRuntime{Session: f.sess, tr: tr}
		rt = trt
	}
	lv := newLayerVals()
	var estErr, maxWork float64
	var inter, inputs int64
	ls := &loopStats{attempted: n}
	c0, g0 := f.counters(), readGC()
	for i := 0; i < n; i++ {
		c.fill(i, c.q)
		tr.setOp(i)
		root := tr.begin("op", -1)
		if trt != nil {
			trt.parent = root
		}
		a0, t0 := heapAllocs(), time.Now()
		res, err := c.execute(rt, c.q)
		lat, alloc := time.Since(t0), heapAllocs()-a0
		tr.end(root)
		if err != nil {
			ls.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			continue
		}
		if err := c.verify(i, c.q, res); err != nil {
			return nil, nil, err
		}
		in := int64(len(c.q.R1) + c.q.Mid.Rows() + len(c.q.R3))
		op := opStat{ms: ms(lat), tuples: in, alloc: alloc}
		for _, st := range res.Stages {
			op.shipped += st.Exec.NetworkTuples
			op.maxW += st.Exec.MaxWork
			op.meanW += st.Exec.TotalWork / float64(workers)
		}
		ls.loopMS += ms(lat)
		ls.ops = append(ls.ops, op)
		if tr == nil {
			continue
		}
		inter += res.Intermediate
		inputs += in
		lv.add("multiway.stage1_plan_ms", ms(res.Stages[0].PlanDuration))
		// Out of band: the stage-1 plan again, to split the core layer's
		// time and compare its estimate with the executed stage 1.
		id := tr.begin("core.plan", -1)
		plan, err := core.PlanCSIO(c.q.R1, c.q.Mid.A, c.q.CondA, c.opts())
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("op %d: out-of-band stage-1 plan: %w", i, err)
		}
		lv.add("core.stats_ms", ms(plan.StatsDuration))
		lv.add("core.histalg_ms", ms(plan.HistAlgDuration))
		estErr += math.Abs(plan.EstimatedMaxWeight - res.Stages[0].Exec.MaxWork)
		maxWork += res.Stages[0].Exec.MaxWork
	}
	ls.addGC(g0, readGC())
	ls.counters = f.counters().sub(c0)
	if tr != nil {
		lv.set("core.est_error", estErr/maxWork)
		lv.set("multiway.intermediate_per_input", float64(inter)/float64(inputs))
	}
	return ls, lv, nil
}
