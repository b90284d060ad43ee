// Package spatial provides the spatial indexes BRACE uses to turn the
// query phase of a tick into disc-range queries instead of a quadratic
// all-pairs scan (paper §5.2, Fig. 3–4): each agent probes the disc of its
// visible region, the spatial join BRASIL's foreach compiles to. That is
// the only query the engines issue.
//
// Three types answer that probe, each through the one Index method:
//
//   - Scan: the no-index baseline ("BRACE - no indexing" in the figures);
//     every probe enumerates all points.
//   - KDTree: the paper's "generic KD-tree based spatial index capability"
//     [Bentley, 3], rebuilt each tick over the agents visible at a reducer.
//   - CachedIndex (cached.go): the KD-tree the engines run, wrapped in
//     Verlet candidate lists for exact cross-tick reuse while agents stay
//     within half a skin radius of their build positions. It is built by
//     key and slot, and also serves per-slot candidate lists.
//
// Scan and KDTree are built over immutable point sets: behavioral
// simulations rebuild at every tick because every agent may move, so they
// favor fast bulk construction and cheap queries over dynamic updates.
package spatial

import (
	"fmt"
	"strconv"

	"github.com/bigreddata/brace/internal/geom"
)

// Point is an indexed element: a location plus the caller's identifier
// (BRACE stores the index of the agent in the reducer's replica slice).
type Point struct {
	Pos geom.Vec
	ID  int32
}

// Index is the one disc probe: RangeCircleInto appends the IDs of every
// point within Euclidean distance rad of c (closed ball) to the
// caller-owned dst, in unspecified order, and returns the extended slice
// and the number of candidate points it examined — the quantity that
// separates log-linear from quadratic behavior in Fig. 3. Probes keep no
// counters: the caller accounts the visits.
type Index interface {
	RangeCircleInto(c geom.Vec, rad float64, dst []int32) ([]int32, int64)
}

// Kind selects an index implementation; it is the value of the engine's
// "indexing" switch in the experiments. The zero value is the KD-tree, the
// paper's choice. Kind is the one index vocabulary of every layer: it
// marshals as text ("kd", "scan"; "" reads as "kd"), so the bracesim flag
// and the HTTP run spec parse through UnmarshalText, and it travels the
// handshake as its number.
type Kind int

const (
	KindKDTree Kind = iota
	KindScan        // brute force, no indexing
)

// String returns the name ParseKind accepts for k.
func (k Kind) String() string {
	switch k {
	case KindKDTree:
		return "kd"
	case KindScan:
		return "scan"
	default:
		return "unknown"
	}
}

// UnknownKindError reports an index outside the vocabulary: a name
// ParseKind does not know, or a number no Kind constant has (a Kind read
// off the wire).
type UnknownKindError struct {
	Name string
}

func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("unknown index %q (kd, scan)", e.Name)
}

// Check returns an *UnknownKindError unless k names an index
// implementation.
func (k Kind) Check() error {
	if k != KindKDTree && k != KindScan {
		return &UnknownKindError{Name: strconv.Itoa(int(k))}
	}
	return nil
}

// ParseKind resolves an index name; "" is the KD-tree.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", "kd":
		return KindKDTree, nil
	case "scan":
		return KindScan, nil
	default:
		return 0, &UnknownKindError{Name: name}
	}
}

// MarshalText implements encoding.TextMarshaler.
func (k Kind) MarshalText() ([]byte, error) {
	if err := k.Check(); err != nil {
		return nil, err
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler through ParseKind.
func (k *Kind) UnmarshalText(text []byte) error {
	v, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Parallelism and SetParallelism survive for the benchmark; drop with the
// next [benchmark] PR. bench/workloads.go saves and restores a pool size
// through them; there is no pool, and nothing else reads the value.
func Parallelism() int { return parallelism }

func SetParallelism(n int) { parallelism = n }

var parallelism int
