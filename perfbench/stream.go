package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/netexec"
	"ewh/internal/sample"
	"ewh/internal/stats"
	"ewh/internal/streamjoin"
)

// streamDrift runs continuous band joins against a Zipf base whose windows
// flip between the whole key range and a narrow range at its heavy end every
// flipEvery windows, so the drift detector replans and re-ships the base
// about once per flip. An op is one window, timed from the previous window's
// result to its own; the stream's open, first plan, initial base ship and
// first window are set-up, not an op.
type streamDrift struct {
	size    size
	seed    uint64
	zipf    *zipf
	base    []join.Key
	windows [][]join.Key
	sorted  []join.Key    // oracle scratch: the base
	win     [2][]join.Key // and the windows, per oracle goroutine
	warmB   []join.Key
	warmW   [][]join.Key
}

const (
	streamBeta = 25
	flipEvery  = 25
	warmWins   = flipEvery + 5 // one flip, so the warm-up stream replans
)

var streamCond = join.NewBand(streamBeta)

func newStreamDrift(sz size, seed uint64) *streamDrift {
	s := &streamDrift{size: sz, seed: seed, zipf: newZipf(sz.rows, bandZipf)}
	s.base = make([]join.Key, sz.rows)
	s.sorted = make([]join.Key, sz.rows)
	s.win = [2][]join.Key{make([]join.Key, sz.windowRows), make([]join.Key, sz.windowRows)}
	s.windows = makeWindows(sz.windows, sz.windowRows)
	s.warmB = make([]join.Key, sz.rows)
	s.warmW = makeWindows(warmWins, sz.windowRows)
	s.fill(warmOp, s.warmB, s.warmW)
	return s
}

func makeWindows(n, rows int) [][]join.Key {
	ws := make([][]join.Key, n)
	for i := range ws {
		ws[i] = make([]join.Key, rows)
	}
	return ws
}

// fill draws one stream's base and windows: windows alternate between the
// whole range and its lowest fiftieth every flipEvery windows.
func (s *streamDrift) fill(stream int, base []join.Key, windows [][]join.Key) {
	rng := opRNG(s.seed, stream, 2)
	s.zipf.fill(base, rng)
	span := int64(s.size.rows)
	for i, w := range windows {
		if (i/flipEvery)%2 == 1 {
			fillUniform(w, 0, span/50, rng)
		} else {
			fillUniform(w, 0, span, rng)
		}
	}
}

func (s *streamDrift) config() streamjoin.Config {
	return streamjoin.Config{
		Opts:  core.Options{J: workers, Model: cost.DefaultBand, Seed: s.seed},
		Exec:  exec.Config{Seed: s.seed},
		Stats: exec.StatsSpec{Seed: s.seed},
	}
}

// verify checks every window's count against the oracle. The two halves of
// the stream are counted on two goroutines: the oracle runs between streams,
// while the program is idle.
func (s *streamDrift) verify(stream int, base []join.Key, windows [][]join.Key, res *streamjoin.Result) error {
	if len(res.Windows) != len(windows) {
		return mismatch(fmt.Sprintf("stream %d: %d window results for %d windows", stream, len(res.Windows), len(windows)))
	}
	s.sorted = sortedCopy(s.sorted, base)
	want := make([]int64, len(windows))
	half := len(windows) / 2
	var wg sync.WaitGroup
	for g, part := range [2][2]int{{0, half}, {half, len(windows)}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := part[0]; i < part[1]; i++ {
				s.win[g] = sortedCopy(s.win[g], windows[i])
				want[i] = bandCount(s.win[g], s.sorted, streamBeta)
			}
		}()
	}
	wg.Wait()
	var total int64
	for i, w := range want {
		total += w
		if err := check(fmt.Sprintf("stream %d window %d count", stream, i), stream, res.Windows[i].Count, w); err != nil {
			return err
		}
	}
	return check("stream total", stream, res.Total, total)
}

func (s *streamDrift) warm(f *fleet) (func() error, error) {
	res, err := streamjoin.Run(f.sess, s.warmB, s.warmW, streamCond, s.config())
	if err != nil {
		return nil, fmt.Errorf("warm-up stream: %w", err)
	}
	return func() error { return s.verify(-1, s.warmB, s.warmW, res) }, nil
}

// loop runs enough streams to time at least n windows.
func (s *streamDrift) loop(f *fleet, n int, tr *tracer) (*loopStats, *layerVals, error) {
	perStream := len(s.windows) - 1
	streams := (n + perStream - 1) / perStream
	rec := &streamRecorder{tr: tr}
	rt := &recordingRuntime{Session: f.sess, rec: rec}
	lv := newLayerVals()
	var replans int
	ls := &loopStats{attempted: streams * perStream}
	c0 := f.counters()
	for st := 0; st < streams; st++ {
		s.fill(st, s.base, s.windows)
		if tr != nil {
			if err := s.planOutOfBand(tr, lv); err != nil {
				return nil, nil, err
			}
		}
		rec.reset(st * perStream)
		res, err := streamjoin.Run(rt, s.base, s.windows, streamCond, s.config())
		end := readGC()
		if err != nil {
			ls.failed += perStream
			fmt.Fprintf(os.Stderr, "perfbench: stream %d failed: %v\n", st, err)
			continue
		}
		if err := s.verify(st, s.base, s.windows, res); err != nil {
			return nil, nil, err
		}
		ls.addGC(rec.gc, end)
		replans += res.Replans
		for i := 1; i <= perStream; i++ {
			ws, ship := res.Windows[i], rec.ships[i]
			lat := ms(rec.collected[i].Sub(rec.collected[i-1]))
			ls.loopMS += lat
			ls.ops = append(ls.ops, opStat{
				ms:      lat,
				tuples:  int64(len(s.windows[i])),
				shipped: int64(ws.Input) + ship.tuples,
				maxW:    ws.Makespan + ship.maxW,
				meanW:   (cost.DefaultBand.Weight(float64(ws.Input), float64(ws.Count)) + ship.totalW) / workers,
				alloc:   rec.allocs[i] - rec.allocs[i-1],
			})
		}
	}
	ls.counters = f.counters().sub(c0)
	if tr != nil {
		lv.set("streamjoin.replans", float64(replans))
	}
	return ls, lv, nil
}

// planOutOfBand times the core layer on the stream's first plan: the same
// summary and horizon-scaled planner call streamjoin.Run makes to open
// the stream, repeated outside it.
func (s *streamDrift) planOutOfBand(tr *tracer, lv *layerVals) error {
	cfg := s.config()
	sum := sample.Summarize(s.windows[0], streamjoin.DefaultStatsCap, streamjoin.DefaultStatsBuckets,
		stats.NewRNG(cfg.Stats.Seed))
	sum.Count *= streamjoin.DefaultPlanHorizon
	id := tr.begin("core.plan", -1)
	plan, err := core.PlanCSIOFromSummary(sum, s.base, streamCond, cfg.Opts)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("out-of-band stream plan: %w", err)
	}
	lv.add("core.stats_ms", ms(plan.StatsDuration))
	lv.add("core.histalg_ms", ms(plan.HistAlgDuration))
	return nil
}

// baseShip is what one SendBase moved, attributed to the window it delayed.
type baseShip struct {
	tuples       int64
	maxW, totalW float64
}

// streamRecorder sees the stream through the StreamHandle streamjoin.Run is
// given: when each window's result arrived, what each base re-ship moved and,
// when tracing, spans for Run's own work between handle calls and for the
// handle's calls.
type streamRecorder struct {
	tr        *tracer
	firstOp   int
	collected []time.Time      // Collect return, per window
	allocs    []uint64         // heapAllocs at each Collect return
	ships     map[int]baseShip // replan re-ships, by the window they delay
	gc        gcSnap           // at the first window's result
	pending   []int            // replan and base-ship spans awaiting their parent span
}

func (r *streamRecorder) reset(firstOp int) {
	r.firstOp = firstOp
	r.collected = r.collected[:0]
	r.allocs = r.allocs[:0]
	r.ships = make(map[int]baseShip)
	r.pending = r.pending[:0]
}

func (r *streamRecorder) last() time.Time { return r.collected[len(r.collected)-1] }

type recordingRuntime struct {
	*netexec.Session
	rec *streamRecorder
}

func (rt *recordingRuntime) OpenStream(spec exec.StreamSpec) (exec.StreamHandle, error) {
	h, err := rt.Session.OpenStream(spec)
	if err != nil {
		return nil, err
	}
	return &recordingHandle{StreamHandle: h, rec: rt.rec}, nil
}

type recordingHandle struct {
	exec.StreamHandle
	rec *streamRecorder
	op  int // span of the window in flight
}

func (h *recordingHandle) SendBase(epoch uint32, shares [][]join.Key) error {
	r := h.rec
	var ship baseShip
	for _, sh := range shares {
		w := cost.DefaultBand.Weight(float64(len(sh)), 0)
		ship.tuples += int64(len(sh))
		ship.maxW = max(ship.maxW, w)
		ship.totalW += w
	}
	replan := len(r.collected) > 0
	if replan {
		r.ships[len(r.collected)] = ship
		r.pending = append(r.pending, r.tr.add("streamjoin.replan", -1, r.last(), time.Now()))
	}
	id := r.tr.begin("streamjoin.base_ship", -1)
	err := h.StreamHandle.SendBase(epoch, shares)
	r.tr.end(id)
	if replan {
		r.pending = append(r.pending, id)
	}
	return err
}

func (h *recordingHandle) SendWindow(window, epoch uint32, shares [][]join.Key) error {
	r := h.rec
	h.op = -1
	if r.tr != nil && window > 0 {
		h.op = r.tr.add("op", -1, r.last(), time.Time{})
		gap := r.tr.add("streamjoin.driver", h.op, r.last(), time.Now())
		for _, id := range r.pending {
			r.tr.setParent(id, gap)
		}
		r.pending = r.pending[:0]
	}
	id := r.tr.begin("streamjoin.send_window", h.op)
	err := h.StreamHandle.SendWindow(window, epoch, shares)
	r.tr.end(id)
	return err
}

func (h *recordingHandle) Collect(window, epoch uint32) ([]exec.WindowReply, error) {
	r := h.rec
	id := r.tr.begin("streamjoin.collect_wait", h.op)
	replies, err := h.StreamHandle.Collect(window, epoch)
	r.tr.end(id)
	if len(r.collected) == 0 {
		r.gc = readGC() // the timed windows start here
	}
	r.allocs = append(r.allocs, heapAllocs())
	r.collected = append(r.collected, time.Now())
	r.tr.end(h.op)
	r.tr.setOp(r.firstOp + int(window)) // the next window's op, whose replan may follow
	return replies, err
}
