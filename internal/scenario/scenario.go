// Package scenario is BRACE's workload registry. The paper evaluates
// three behaviors (fish school, traffic, predator); the registry makes
// "one more scenario" a one-file change: a workload registers its name,
// description, parameter defaults, population builder and effect-locality
// flag once, and every tool — cmd/bracesim, cmd/experiments, the
// benchmark sweep and the cross-engine equivalence tests — picks it up
// automatically.
//
// The effect-locality flag drives the engine-equivalence oracle that is
// this codebase's core correctness claim: scenarios whose query phase
// assigns effects only to self (LocalOnly) must produce *bit-identical*
// state at any worker count, and the same state as the engine package's
// naive oracle; scenarios with non-local assignments agree exactly at one
// worker and up to floating-point reassociation of the global ⊕ fold
// beyond that (bounded by Tolerance).
package scenario

import (
	"fmt"
	"sync"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/detutil"
	"github.com/bigreddata/brace/internal/engine"
)

// Config sizes one scenario instance. Zero values select the spec's
// defaults, so Config{Seed: s} is always valid.
type Config struct {
	// Agents is the requested population size. Scenarios that derive
	// their population from geometry (traffic: density × length) treat it
	// as a hint and may ignore it.
	Agents int
	// Seed drives population placement (and, via the engine, all
	// simulation randomness).
	Seed uint64
	// Extent is the scenario's spatial size knob: segment length for
	// traffic, world radius for free-space models, the long room side for
	// evacuation.
	Extent float64
}

// Spec is one registered workload.
type Spec struct {
	// Name is the registry key (what bracesim -model takes).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Defaults holds the scenario's parameter struct (fish.Params etc.),
	// for display; Build re-derives it from Config, so mutating this copy
	// has no effect.
	Defaults any
	// DefaultAgents is the population used when Config.Agents is zero
	// (informational for scenarios that derive population from Extent).
	DefaultAgents int
	// DefaultExtent is the spatial size used when Config.Extent is zero.
	DefaultExtent float64
	// LocalOnly reports that every effect assignment targets self, i.e.
	// the engines must agree bit-for-bit at any worker count.
	LocalOnly bool
	// Tolerance bounds cross-engine state divergence for non-local
	// scenarios at >1 workers (ignored when LocalOnly).
	Tolerance float64
	// Build constructs the model and its initial population. cfg arrives
	// normalized: Agents and Extent are never zero.
	Build func(cfg Config) (engine.Model, []*agent.Agent, error)
}

// normalize fills cfg's zero fields from the spec's defaults.
func (sp Spec) normalize(cfg Config) Config {
	if cfg.Agents <= 0 {
		cfg.Agents = sp.DefaultAgents
	}
	if cfg.Extent <= 0 {
		cfg.Extent = sp.DefaultExtent
	}
	return cfg
}

// New builds the scenario's model and population with defaults applied.
func (sp Spec) New(cfg Config) (engine.Model, []*agent.Agent, error) {
	m, pop, err := sp.Build(sp.normalize(cfg))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	return m, pop, nil
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Spec)
)

// Register adds a scenario to the registry. It panics on an empty name, a
// duplicate, or a nil builder — registration happens in package init,
// where a bad spec is a programming error.
func Register(sp Spec) {
	if sp.Name == "" {
		panic("scenario: Register with empty name")
	}
	if sp.Build == nil {
		panic(fmt.Sprintf("scenario: %s has no Build function", sp.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[sp.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", sp.Name))
	}
	registry[sp.Name] = sp
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	sp, ok := registry[name]
	return sp, ok
}

// All returns every registered scenario, sorted by name.
func All() []Spec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Spec, 0, len(registry))
	for _, name := range detutil.SortedKeys(registry) {
		out = append(out, registry[name])
	}
	return out
}

// Names returns the sorted registry keys.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, sp := range all {
		names[i] = sp.Name
	}
	return names
}

// ErrUnknown builds the standard unknown-scenario error, listing what is
// available so CLI users can self-serve.
func ErrUnknown(name string) error {
	return fmt.Errorf("unknown scenario %q (registered: %v)", name, Names())
}
