package cluster

import (
	"math"
	"sync"
	"testing"
)

func TestVClockBarrierTakesMax(t *testing.T) {
	c := NewVClock(3, CostModel{SecPerVisit: 1}) // zero barrier cost for exactness
	c.Charge(0, 1.0)
	c.Charge(1, 2.5)
	c.Charge(2, 0.5)
	d := c.Barrier()
	if d != 2.5 {
		t.Errorf("Barrier = %v, want max 2.5", d)
	}
	if c.Now() != 2.5 {
		t.Errorf("Now = %v", c.Now())
	}
	// Accumulators reset.
	if c.Barrier() != 0 {
		t.Error("second barrier should be zero")
	}
	// Negative / zero charges ignored.
	c.Charge(0, -5)
	if c.Barrier() != 0 {
		t.Error("negative charge affected clock")
	}
}

func TestVClockChargeHelpers(t *testing.T) {
	m := CostModel{SecPerVisit: 1, SecPerAgent: 10, SecPerByte: 100, SecPerMsg: 1000}
	c := NewVClock(1, m)
	c.ChargeCompute(0, 3, 2) // 3*1 + 2*10 = 23
	c.ChargeNetwork(0, 2, 5) // 5*100 + 2*1000 = 2500
	if d := c.Barrier(); d != 2523 {
		t.Errorf("Barrier = %v, want 2523", d)
	}
	// Each charge lands on its own node: the superstep is the slower one.
	m.SecPerBarrier = 5
	c = NewVClock(2, m)
	c.ChargeCompute(0, 1, 0) // 1
	c.ChargeNetwork(1, 0, 1) // 100
	if d := c.Barrier(); d != 105 {
		t.Errorf("Barrier = %v, want the slower node's 100 plus the barrier's 5", d)
	}
}

func TestVClockLoadImbalanceCostsTime(t *testing.T) {
	// Balanced: 4 nodes × 1s work each per superstep → 1s per superstep.
	// Imbalanced: all 4s of work on one node → 4s per superstep.
	zero := CostModel{SecPerVisit: 1}
	bal := NewVClock(4, zero)
	imb := NewVClock(4, zero)
	for i := 0; i < 10; i++ {
		for n := 0; n < 4; n++ {
			bal.Charge(NodeID(n), 1)
		}
		imb.Charge(0, 4)
		bal.Barrier()
		imb.Barrier()
	}
	if bal.Now() >= imb.Now() {
		t.Errorf("balanced %v should beat imbalanced %v", bal.Now(), imb.Now())
	}
	if math.Abs(imb.Now()/bal.Now()-4) > 1e-9 {
		t.Errorf("imbalance ratio = %v, want 4", imb.Now()/bal.Now())
	}
}

func TestVClockConcurrentCharges(t *testing.T) {
	c := NewVClock(8, CostModel{SecPerVisit: 1})
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(id NodeID) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Charge(id, 0.001)
			}
		}(NodeID(n))
	}
	wg.Wait()
	if d := c.Barrier(); math.Abs(d-1.0) > 1e-9 {
		t.Errorf("Barrier = %v, want 1.0", d)
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	m := DefaultCostModel()
	if m.SecPerVisit <= 0 || m.SecPerAgent <= 0 || m.SecPerByte <= 0 || m.SecPerMsg <= 0 || m.SecPerBarrier <= 0 {
		t.Error("cost model must have positive coefficients")
	}
	// A barrier must cost real but sub-millisecond time.
	if m.SecPerBarrier < 10e-6 || m.SecPerBarrier > 1e-3 {
		t.Errorf("barrier cost %v implausible", m.SecPerBarrier)
	}
	// 1 GbE: a 1 MB transfer should cost around 8 ms.
	sec := 1e6 * m.SecPerByte
	if sec < 1e-3 || sec > 0.1 {
		t.Errorf("1MB transfer = %v s, implausible for 1GbE", sec)
	}
}
