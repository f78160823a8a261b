package netexec

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ewh/internal/core"
	"ewh/internal/cost"
	"ewh/internal/exec"
	"ewh/internal/join"
	"ewh/internal/localjoin"
	"ewh/internal/partition"
	"ewh/internal/stats"
)

var model = cost.Model{Wi: 1, Wo: 0.2}

func randKeys(n int, domain int64, seed uint64) []join.Key {
	r := stats.NewRNG(seed)
	out := make([]join.Key, n)
	for i := range out {
		out[i] = r.Int64n(domain)
	}
	return out
}

func TestNetRunMatchesLocal(t *testing.T) {
	r1 := randKeys(3000, 1500, 1)
	r2 := randKeys(3000, 1500, 2)
	cond := join.NewBand(2)
	plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: 4, Model: model, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, plan.Scheme.Workers())

	netRes, err := exec.RunOver(dialSession(t, addrs), r1, r2, cond, plan.Scheme, model, exec.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	localRes := exec.Run(r1, r2, cond, plan.Scheme, model, exec.Config{Seed: 4})
	if netRes.Output != localRes.Output {
		t.Fatalf("net output %d != local %d", netRes.Output, localRes.Output)
	}
	if want := localjoin.NestedLoopCount(r1, r2, cond); netRes.Output != want {
		t.Fatalf("net output %d != ground truth %d", netRes.Output, want)
	}
	if netRes.NetworkTuples != localRes.NetworkTuples {
		t.Fatalf("net shipped %d != local %d", netRes.NetworkTuples, localRes.NetworkTuples)
	}
	if !strings.HasSuffix(netRes.Scheme, "@sess") {
		t.Errorf("scheme label %q", netRes.Scheme)
	}
}

func TestNetRunCIScheme(t *testing.T) {
	// The randomized CI scheme also works over the wire (routing happens on
	// the coordinator, so the random choices are made once).
	r1 := randKeys(1000, 800, 5)
	r2 := randKeys(1000, 800, 6)
	cond := join.Equi{}
	plan, err := core.PlanCI(core.Options{J: 4, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, 4)
	res, err := exec.RunOver(dialSession(t, addrs), r1, r2, cond, plan.Scheme, model, exec.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := localjoin.NestedLoopCount(r1, r2, cond); res.Output != want {
		t.Fatalf("output %d, want %d", res.Output, want)
	}
}

func TestNetRunTooFewWorkers(t *testing.T) {
	plan, err := core.PlanCI(core.Options{J: 8, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, 2)
	if _, err := exec.RunOver(dialSession(t, addrs), nil, nil, join.Equi{}, plan.Scheme, model,
		exec.Config{Seed: 1}); err == nil {
		t.Fatal("scheme wider than worker pool accepted")
	}
}

func TestNetRunDialFailure(t *testing.T) {
	if _, err := Dial([]string{"127.0.0.1:1"}); err == nil {
		t.Fatal("dead worker address accepted")
	}
}

func TestNetRunUnsupportedCondition(t *testing.T) {
	// A condition with no wire spec fails the job before anything ships;
	// the session stays usable.
	_, addrs := startWorkerSet(t, 1)
	sess := dialSession(t, addrs)
	r1 := []join.Key{1, 2, 2}
	if _, err := exec.RunOver(sess, r1, r1, badCond{}, partition.NewCI(1), model,
		exec.Config{Seed: 1}); err == nil {
		t.Fatal("unspecable condition accepted")
	}
	res, err := exec.RunOver(sess, r1, r1, join.Equi{}, partition.NewCI(1), model, exec.Config{Seed: 2})
	if err != nil {
		t.Fatalf("session unusable after a rejected job: %v", err)
	}
	if res.Output != 5 {
		t.Fatalf("output %d, want 5", res.Output)
	}
}

type badCond struct{}

func (badCond) Matches(a, b join.Key) bool               { return a == b }
func (badCond) JoinableRange(a join.Key) (x, y join.Key) { return a, a }
func (badCond) String() string                           { return "bad" }

func TestSpecRoundTrip(t *testing.T) {
	conds := []join.Condition{
		join.NewBand(0), join.NewBand(7), join.Equi{},
		join.Inequality{Op: join.Less}, join.Inequality{Op: join.GreaterEq},
		join.Shifted{Inner: join.NewBand(2), Scale: 10, Offset: -3},
	}
	for _, c := range conds {
		spec, err := join.SpecOf(c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		back, err := spec.Condition()
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for a := join.Key(-20); a <= 20; a += 3 {
			for b := join.Key(-20); b <= 20; b += 3 {
				if c.Matches(a, b) != back.Matches(a, b) {
					t.Fatalf("%v: round-tripped condition disagrees at (%d,%d)", c, a, b)
				}
			}
		}
	}
	if _, err := join.SpecOf(badCond{}); err == nil {
		t.Error("foreign condition specced")
	}
	if _, err := (join.Spec{Kind: "nope"}).Condition(); err == nil {
		t.Error("bad spec kind accepted")
	}
	if _, err := (join.Spec{Kind: "shifted"}).Condition(); err == nil {
		t.Error("shifted spec without inner accepted")
	}
}

func TestNetRunSkewedCSIO(t *testing.T) {
	r := stats.NewRNG(8)
	z := stats.NewZipf(600, 0.9)
	r1 := make([]join.Key, 2000)
	r2 := make([]join.Key, 2000)
	for i := range r1 {
		r1[i] = z.Draw(r)
		r2[i] = z.Draw(r)
	}
	cond := join.NewBand(1)
	plan, err := core.PlanCSIO(r1, r2, cond, core.Options{J: 6, Model: model, Seed: 9, DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, plan.Scheme.Workers())
	res, err := exec.RunOver(dialSession(t, addrs), r1, r2, cond, plan.Scheme, model, exec.Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := localjoin.NestedLoopCount(r1, r2, cond); res.Output != want {
		t.Fatalf("output %d, want %d", res.Output, want)
	}
}

func TestNetRunConcurrentJobs(t *testing.T) {
	// One worker pool serves two coordinators' sessions concurrently (the
	// worker handles connections independently).
	r1 := randKeys(800, 500, 20)
	r2 := randKeys(800, 500, 21)
	cond := join.NewBand(1)
	plan, err := core.PlanCI(core.Options{J: 2, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startWorkerSet(t, 2)
	want := localjoin.NestedLoopCount(r1, r2, cond)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		sess := dialSession(t, addrs)
		go func(seed uint64) {
			res, err := exec.RunOver(sess, r1, r2, cond, plan.Scheme, model, exec.Config{Seed: seed})
			if err == nil && res.Output != want {
				err = fmt.Errorf("output %d, want %d", res.Output, want)
			}
			done <- err
		}(uint64(30 + i))
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRetiredProtocolsRefused(t *testing.T) {
	// The worker speaks v3 sessions and the v4 peer mesh only. A magic
	// prelude naming any other version — 2 is the retired one-shot protocol —
	// gets one v3 metrics error on job 0 naming the spoken versions; a
	// connection without the magic (the retired v1 gob stream opened with a
	// bare gob handshake) is closed unanswered. Neither disturbs the worker:
	// a fresh session still runs a job afterwards.
	_, addrs := startWorkerSet(t, 1)
	r1 := randKeys(200, 100, 140)
	want := localjoin.NestedLoopCount(r1, r1, join.Equi{})
	cases := []struct {
		name    string
		open    func(conn net.Conn) error
		wantErr string // "" means the worker must close without a reply
	}{
		{"v1 gob handshake", func(conn net.Conn) error {
			return gob.NewEncoder(conn).Encode(struct {
				WorkerID int
				Wi, Wo   float64
			}{0, 1, 0.2})
		}, ""},
		{"v2 prelude", func(conn net.Conn) error { return writePrelude(conn, 2) },
			"protocol version 2, worker speaks 3 and 4"},
		{"unknown version", func(conn net.Conn) error { return writePrelude(conn, 9) },
			"protocol version 9, worker speaks 3 and 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := tc.open(conn); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(conn)
			if tc.wantErr != "" {
				if m := readV3Metrics(t, br, 0); !strings.Contains(m.Err, tc.wantErr) {
					t.Fatalf("error %q, want %q", m.Err, tc.wantErr)
				}
			}
			// Whatever the worker replied, it then hangs up.
			var ne net.Error
			if _, err := br.ReadByte(); err == nil || errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("worker kept the connection open (read: %v)", err)
			}

			sess := dialSession(t, addrs)
			res, err := exec.RunOver(sess, r1, r1, join.Equi{}, partition.NewCI(1), model,
				exec.Config{Seed: 141})
			if err != nil {
				t.Fatalf("fresh session after refused connection: %v", err)
			}
			if res.Output != want {
				t.Fatalf("output %d, want %d", res.Output, want)
			}
		})
	}
}

// writePrelude sends the magic and a protocol version.
func writePrelude(w io.Writer, version uint16) error {
	var prelude [len(protoMagic) + 2]byte
	copy(prelude[:], protoMagic[:])
	binary.LittleEndian.PutUint16(prelude[len(protoMagic):], version)
	_, err := w.Write(prelude[:])
	return err
}

func TestWorkerCloseStopsServe(t *testing.T) {
	w, err := ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close, want nil", err)
	}
}
