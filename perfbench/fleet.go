package main

import (
	"fmt"
	"sync"

	"ewh/internal/netexec"
)

// fleet is J netexec workers listening on loopback inside this process and
// the one session the client drives them through.
type fleet struct {
	workers []*netexec.Worker
	sess    *netexec.Session
	serving sync.WaitGroup
}

// startFleet starts j workers and dials the session.
func startFleet(j int) (*fleet, error) {
	f := &fleet{}
	addrs := make([]string, 0, j)
	for i := 0; i < j; i++ {
		w, err := netexec.ListenWorker("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start worker: %w", err)
		}
		f.workers = append(f.workers, w)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = w.Serve() // returns nil once close stops the worker
		}()
		addrs = append(addrs, w.Addr())
	}
	sess, err := netexec.Dial(addrs)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("dial session: %w", err)
	}
	f.sess = sess
	return f, nil
}

// close hangs up the session, stops every worker and waits for their accept
// loops to return.
func (f *fleet) close() {
	if f.sess != nil {
		_ = f.sess.Close()
	}
	for _, w := range f.workers {
		_ = w.Close()
	}
	f.serving.Wait()
}

// counters are the session's cumulative work counters.
type counters struct{ relayed, overlappedStage2, buildOverlapped int64 }

func (f *fleet) counters() counters {
	return counters{f.sess.RelayedPairs(), f.sess.OverlappedStage2(), f.sess.BuildOverlappedChunks()}
}

func (c counters) sub(d counters) counters {
	return counters{c.relayed - d.relayed, c.overlappedStage2 - d.overlappedStage2, c.buildOverlapped - d.buildOverlapped}
}
