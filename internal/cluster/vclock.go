package cluster

import "sync"

// CostModel converts work counters into virtual seconds. The defaults are
// calibrated to commodity 2010-era hardware (2.66 GHz Xeon, 1 GbE), the
// Cornell Web Lab configuration of the paper, so that throughput magnitudes
// land in the paper's range (millions of agent-ticks per second per node
// for cheap models).
type CostModel struct {
	// SecPerVisit charges each candidate agent examined during the query
	// phase — the engine's Visited gauge: the members of the core and halo
	// grid cells each probe reads (or every copy, under the scan). It is
	// the dominant compute term, and a function of the state, the
	// partitioning and the index kind alone.
	SecPerVisit float64
	// SecPerAgent charges per owned agent per tick for map/update work and
	// per-agent fixed overheads.
	SecPerAgent float64
	// SecPerByte charges network transfer (1 GbE ≈ 125 MB/s payload).
	SecPerByte float64
	// SecPerMsg charges fixed per-message latency/processing.
	SecPerMsg float64
	// SecPerBarrier charges each bulk-synchronous barrier — the fixed
	// cost of one communication phase (task dispatch + synchronization).
	// Eliminating one reduce pass per tick via effect inversion saves
	// exactly one barrier plus its traffic, which is what Fig. 5 measures.
	SecPerBarrier float64
}

// DefaultCostModel returns the calibration used by the experiment harness.
func DefaultCostModel() CostModel {
	return CostModel{
		SecPerVisit:   120e-9, // ~320 cycles of model math per candidate
		SecPerAgent:   250e-9, // per-agent bookkeeping + update rule
		SecPerByte:    8e-9,   // 1 Gbit/s
		SecPerMsg:     40e-6,  // switch + stack latency per batch
		SecPerBarrier: 150e-6, // MPI-style barrier at tens of nodes
	}
}

// VClock is the cluster's bulk-synchronous virtual clock. During a
// superstep each node accumulates charge; Barrier advances the cluster time
// by the maximum node charge (all nodes wait for the slowest — the BSP
// model that makes load imbalance cost wall time) and resets the per-node
// accumulators.
type VClock struct {
	mu    sync.Mutex
	node  []float64
	now   float64
	model CostModel
}

// NewVClock creates a clock for n nodes with the given cost model.
func NewVClock(n int, m CostModel) *VClock {
	return &VClock{node: make([]float64, n), model: m}
}

// Charge adds dt virtual seconds to node n's current superstep.
func (c *VClock) Charge(n NodeID, dt float64) {
	if dt <= 0 {
		return
	}
	c.mu.Lock()
	c.node[n] += dt
	c.mu.Unlock()
}

// ChargeCompute charges node n for visiting `visited` index candidates and
// updating `agents` agents.
func (c *VClock) ChargeCompute(n NodeID, visited, agents int64) {
	c.Charge(n, float64(visited)*c.model.SecPerVisit+float64(agents)*c.model.SecPerAgent)
}

// ChargeNetwork charges node n for sending msgs messages totaling the given
// bytes across the network. Collocated (local) deliveries cost nothing.
func (c *VClock) ChargeNetwork(n NodeID, msgs, bytes int64) {
	c.Charge(n, float64(bytes)*c.model.SecPerByte+float64(msgs)*c.model.SecPerMsg)
}

// Barrier ends the superstep: cluster time advances by the maximum per-node
// charge plus the fixed barrier cost; accumulators reset. It returns the
// superstep's duration.
func (c *VClock) Barrier() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max float64
	for i, v := range c.node {
		if v > max {
			max = v
		}
		c.node[i] = 0
	}
	d := max + c.model.SecPerBarrier
	c.now += d
	return d
}

// Now returns the cluster virtual time in seconds.
func (c *VClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}
