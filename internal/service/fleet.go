// The fleet: the daemon's shared pool of bracesim-worker daemons, and the
// scheduler that places runs on it. Placement mirrors how the coordinator
// places partitions on workers — least-loaded first, deterministic
// tie-break by index — except the unit is a whole run session: each
// admitted run opens one coordinator session on each worker it is placed
// on, and workers serve sessions of many runs concurrently (wire v4).
package service

import (
	"fmt"
	"sync"
)

// WorkerInfo is one fleet worker's externally visible state.
type WorkerInfo struct {
	Addr string `json:"addr"`
	// Sessions is the number of active run sessions placed on the worker.
	Sessions int `json:"sessions"`
	// Down marks a worker whose process left a run and could not be
	// re-admitted; the scheduler stops placing new runs on it.
	Down bool `json:"down"`
	// LastError is the cause that marked the worker down, if any.
	LastError string `json:"last_error,omitempty"`
	// Registered marks a worker that announced itself through the
	// registry (-register) rather than being pre-wired via -worker-addrs.
	Registered bool `json:"registered,omitempty"`
	// PeerLinks is the worker-reported count of open peer links.
	PeerLinks int `json:"peer_links,omitempty"`
}

// fleet tracks per-worker load and health for the scheduler.
type fleet struct {
	mu      sync.Mutex
	workers []WorkerInfo
	// perWorker caps concurrent run sessions per worker (admission
	// control: a fleet can refuse more multiplexing than it wants).
	perWorker int
}

func newFleet(addrs []string, sessionsPerWorker int) *fleet {
	if sessionsPerWorker <= 0 {
		sessionsPerWorker = 4
	}
	f := &fleet{perWorker: sessionsPerWorker}
	for _, a := range addrs {
		f.workers = append(f.workers, WorkerInfo{Addr: a})
	}
	return f
}

// place reserves n distinct workers for a run, least-loaded first with
// ascending index as the tie-break, and returns their addresses and
// indexes. It fails — without reserving anything — when fewer than n
// workers are up and under their session cap; the caller queues the run.
func (f *fleet) place(n int) (addrs []string, idxs []int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(idxs) < n {
		best := -1
		for i := range f.workers {
			w := &f.workers[i]
			if w.Down || w.Sessions >= f.perWorker || contains(idxs, i) {
				continue
			}
			if best < 0 || w.Sessions < f.workers[best].Sessions {
				best = i
			}
		}
		if best < 0 {
			return nil, nil, fmt.Errorf("service: %d of %d requested workers available", len(idxs), n)
		}
		idxs = append(idxs, best)
		addrs = append(addrs, f.workers[best].Addr)
	}
	for _, i := range idxs {
		f.workers[i].Sessions++
	}
	return addrs, idxs, nil
}

// admit adds a self-registered worker to the pool, or revives it if a
// previous incarnation at the same address was marked down: a daemon that
// re-registers is provably a live process again.
func (f *fleet) admit(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.workers {
		if f.workers[i].Addr == addr {
			f.workers[i].Registered = true
			f.workers[i].Down = false
			f.workers[i].LastError = ""
			return
		}
	}
	f.workers = append(f.workers, WorkerInfo{Addr: addr, Registered: true})
}

// size is the fleet width (up or down).
func (f *fleet) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.workers)
}

// release returns a finished run's session slots to the pool.
func (f *fleet) release(idxs []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, i := range idxs {
		if f.workers[i].Sessions > 0 {
			f.workers[i].Sessions--
		}
	}
}

// markDown records that a worker's process is gone. Any run whose
// coordinator reports the death calls this, so one crash steers every
// future placement away — not just the run that noticed. (Active runs on
// the worker each recover independently through their own coordinators.)
func (f *fleet) markDown(addr string, cause error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.workers {
		if f.workers[i].Addr == addr {
			f.workers[i].Down = true
			if cause != nil {
				f.workers[i].LastError = cause.Error()
			}
		}
	}
}

// capacity returns how many more sessions the fleet can host right now.
func (f *fleet) capacity() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	free := 0
	for i := range f.workers {
		if !f.workers[i].Down {
			free += f.perWorker - f.workers[i].Sessions
		}
	}
	return free
}

// upWorkers returns how many workers are currently schedulable.
func (f *fleet) upWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for i := range f.workers {
		if !f.workers[i].Down {
			n++
		}
	}
	return n
}

// snapshot copies the fleet state for the status API.
func (f *fleet) snapshot() []WorkerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]WorkerInfo(nil), f.workers...)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
