package main

import (
	"errors"
	"testing"

	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/netexec"
)

// tinySizes run each workload in well under a second.
var tinySizes = map[string]size{
	"band-skew":      {rows: 5_000, opsPerSecond: 3, warmups: 1},
	"multiway-chain": {rows: 5_000, opsPerSecond: 3, warmups: 1},
	"stream-drift":   {rows: 20_000, opsPerSecond: 100, windows: 60, windowRows: 1_000},
}

// exactMetrics are the metrics that must repeat bit for bit for a seed.
func exactMetrics(t *testing.T, name string, seed uint64) map[string]float64 {
	t.Helper()
	m, err := run(name, tinySizes[name], seed, 1, true, "")
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if m.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed", name, seed, m.failed, m.attempted)
	}
	out := map[string]float64{
		"network_tuples_per_input": m.endToEnd["network_tuples_per_input"],
		"makespan_imbalance":       m.endToEnd["makespan_imbalance"],
	}
	switch name {
	case "band-skew":
		out["core.est_error"] = m.perLayer["core.est_error"]
	case "multiway-chain":
		out["core.est_error"] = m.perLayer["core.est_error"]
		out["multiway.intermediate_per_input"] = m.perLayer["multiway.intermediate_per_input"]
	case "stream-drift":
		out["streamjoin.replans"] = m.perLayer["streamjoin.replans"]
		if out["streamjoin.replans"] < 1 {
			t.Fatalf("stream-drift seed %d: the flips fired no replan", seed)
		}
	}
	return out
}

func TestExactMetricsRepeat(t *testing.T) {
	for name := range tinySizes {
		t.Run(name, func(t *testing.T) {
			a, b := exactMetrics(t, name, 1), exactMetrics(t, name, 1)
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v with the same seed", k, v, b[k])
				}
			}
			c := exactMetrics(t, name, 2)
			for _, k := range []string{"network_tuples_per_input", "makespan_imbalance"} {
				if c[k] == a[k] {
					t.Errorf("%s: %v under seeds 1 and 2; the seed does not reach the inputs", k, a[k])
				}
			}
		})
	}
}

func TestOracleMatchesNestedLoops(t *testing.T) {
	rng := opRNG(7, 0, 0)
	r1, r2, r3, b := make([]join.Key, 300), make([]join.Key, 300), make([]join.Key, 300), make([]join.Key, 300)
	for _, rel := range [][]join.Key{r1, r2, r3, b} {
		fillUniform(rel, 0, 200, rng)
	}
	for _, beta := range []int64{0, 1, 3, 25} {
		var want int64
		for _, x := range r1 {
			for _, y := range r2 {
				if x-y <= beta && y-x <= beta {
					want++
				}
			}
		}
		s1, s2 := sortedCopy(nil, r1), sortedCopy(nil, r2)
		if got := bandCount(s1, s2, beta); got != want {
			t.Errorf("band %d: oracle %d, nested loops %d", beta, got, want)
		}
	}
	var want, wantStage1 int64
	for i, a := range r2 {
		var c1, c3 int64
		for _, x := range r1 {
			if x-a <= chainBeta && a-x <= chainBeta {
				c1++
			}
		}
		for _, z := range r3 {
			if z == b[i] {
				c3++
			}
		}
		want += c1 * c3
		wantStage1 += c1
	}
	got, stage1 := chainCount(sortedCopy(nil, r1), r2, b, sortedCopy(nil, r3), chainBeta)
	if got != want || stage1 != wantStage1 {
		t.Errorf("chain: oracle (%d, %d), nested loops (%d, %d)", got, stage1, want, wantStage1)
	}
}

// corruptingRuntime adds one match to worker 0's count of every job.
type corruptingRuntime struct{ *netexec.Session }

func (c corruptingRuntime) RunJob(job *exec.Job, wm []exec.WorkerMetrics) error {
	err := c.Session.RunJob(job, wm)
	wm[0].Output++
	return err
}

func TestOracleRejectsCorruptedCount(t *testing.T) {
	b := newBandSkew(tinySizes["band-skew"], 1)
	f, err := startFleet(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	b.fill(0, b.r1, b.r2)
	_, res, _, err := b.query(corruptingRuntime{f.sess}, b.r1, b.r2, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	var bad mismatch
	if err := check("output", 0, res.Output, b.want(b.r1, b.r2)); !errors.As(err, &bad) {
		t.Fatalf("a count one too high passed the oracle (err %v)", err)
	}
}
