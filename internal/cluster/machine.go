package cluster

import (
	"fmt"
	"math/rand"
)

// ClockDomain says which hardware components share a time source.
type ClockDomain int

const (
	// DomainNode: all cores of a node read the same clock (the common case
	// on the paper's machines; prerequisite for ClockPropSync at node level).
	DomainNode ClockDomain = iota
	// DomainSocket: one clock per socket (the case motivating H3HCA).
	DomainSocket
	// DomainCore: every core has its own clock.
	DomainCore
)

func (d ClockDomain) String() string {
	switch d {
	case DomainNode:
		return "node"
	case DomainSocket:
		return "socket"
	case DomainCore:
		return "core"
	}
	return fmt.Sprintf("ClockDomain(%d)", int(d))
}

// ClockSource selects which OS time source a reading emulates.
type ClockSource int

const (
	// Monotonic emulates clock_gettime(CLOCK_MONOTONIC): fine granularity,
	// but per-domain offsets are arbitrary (node boot times), so readings
	// on different nodes are wildly apart (paper Fig. 10b).
	Monotonic ClockSource = iota
	// GTOD emulates gettimeofday: NTP keeps domains within a few hundred
	// microseconds of each other, but the granularity is 1 µs (Fig. 10d).
	GTOD
)

func (s ClockSource) String() string {
	if s == Monotonic {
		return "clock_gettime"
	}
	return "gettimeofday"
}

// ClockGenSpec describes the population a machine's clocks are drawn from.
type ClockGenSpec struct {
	OffsetSpread   float64 // offsets uniform in [-OffsetSpread, +OffsetSpread]
	SkewSpread     float64 // base skews uniform in [-SkewSpread, +SkewSpread]
	WanderSigma    float64
	WanderRho      float64
	WanderInterval float64
	Granularity    float64
	ReadCost       float64
}

// draw instantiates one clock spec from the population.
func (g ClockGenSpec) draw(rng *rand.Rand) ClockSpec {
	return ClockSpec{
		Offset:         (2*rng.Float64() - 1) * g.OffsetSpread,
		BaseSkew:       (2*rng.Float64() - 1) * g.SkewSpread,
		WanderSigma:    g.WanderSigma,
		WanderRho:      g.WanderRho,
		WanderInterval: g.WanderInterval,
		Granularity:    g.Granularity,
		ReadCost:       g.ReadCost,
	}
}

// MachineSpec is the static description of a parallel machine.
type MachineSpec struct {
	Name           string
	Nodes          int
	SocketsPerNode int
	CoresPerSocket int
	ClockDomain    ClockDomain

	// Latency per communication level.
	InterNode   LinkSpec
	IntraNode   LinkSpec // same node, different socket
	IntraSocket LinkSpec

	// CPU overheads charged to the sending/receiving process.
	SendOverhead float64
	RecvOverhead float64

	// Clock populations for the two time sources.
	Mono ClockGenSpec
	GTOD ClockGenSpec
}

// CoresPerNode returns SocketsPerNode*CoresPerSocket.
func (s MachineSpec) CoresPerNode() int { return s.SocketsPerNode * s.CoresPerSocket }

// TotalCores returns the machine's core count.
func (s MachineSpec) TotalCores() int { return s.Nodes * s.CoresPerNode() }

// Mapping places MPI ranks onto cores.
type Mapping int

const (
	// MapBlock fills a node completely before moving to the next
	// (mpirun --map-by core): ranks 0..C-1 on node 0, etc.
	MapBlock Mapping = iota
	// MapSpread puts consecutive ranks on consecutive nodes, first core
	// first (mpirun --map-by node); used for one-rank-per-node runs.
	MapSpread
)

// Location is the physical placement of one rank.
type Location struct {
	Node, Socket, Core int // Core is socket-local
}

// Machine is an instantiated machine: a spec plus concrete clocks and rank
// placement for a given process count.
type Machine struct {
	Spec  MachineSpec
	locs  []Location
	mono  []*HWClock // indexed by clock-domain id
	gtod  []*HWClock
	nproc int
}

// NewMachine instantiates spec for nprocs ranks placed by mapping, drawing
// clocks deterministically from seed.
func NewMachine(spec MachineSpec, nprocs int, mapping Mapping, seed int64) (*Machine, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("cluster: nprocs must be positive, got %d", nprocs)
	}
	if nprocs > spec.TotalCores() {
		return nil, fmt.Errorf("cluster: %d procs exceed %s's %d cores",
			nprocs, spec.Name, spec.TotalCores())
	}
	m := &Machine{Spec: spec, nproc: nprocs}
	cpn := spec.CoresPerNode()
	for r := 0; r < nprocs; r++ {
		var core int // node-local core index
		var node int
		switch mapping {
		case MapBlock:
			node, core = r/cpn, r%cpn
		case MapSpread:
			node, core = r%spec.Nodes, r/spec.Nodes
		default:
			return nil, fmt.Errorf("cluster: unknown mapping %d", mapping)
		}
		m.locs = append(m.locs, Location{
			Node:   node,
			Socket: core / spec.CoresPerSocket,
			Core:   core % spec.CoresPerSocket,
		})
	}
	// Create every domain clock up front so that clock parameters depend
	// only on the seed, not on which ranks exist or the query order.
	rng := rand.New(rand.NewSource(seed))
	n := m.domainCount()
	for i := 0; i < n; i++ {
		m.mono = append(m.mono, NewHWClock(spec.Mono.draw(rng), rng.Int63()))
	}
	for i := 0; i < n; i++ {
		m.gtod = append(m.gtod, NewHWClock(spec.GTOD.draw(rng), rng.Int63()))
	}
	return m, nil
}

// NProcs returns the number of ranks placed on the machine.
func (m *Machine) NProcs() int { return m.nproc }

// Location returns the placement of rank r.
func (m *Machine) Location(r int) Location { return m.locs[r] }

func (m *Machine) domainCount() int {
	switch m.Spec.ClockDomain {
	case DomainNode:
		return m.Spec.Nodes
	case DomainSocket:
		return m.Spec.Nodes * m.Spec.SocketsPerNode
	default:
		return m.Spec.TotalCores()
	}
}

func (m *Machine) domainOf(r int) int {
	l := m.locs[r]
	switch m.Spec.ClockDomain {
	case DomainNode:
		return l.Node
	case DomainSocket:
		return l.Node*m.Spec.SocketsPerNode + l.Socket
	default:
		return (l.Node*m.Spec.SocketsPerNode+l.Socket)*m.Spec.CoresPerSocket + l.Core
	}
}

// Clock returns the hardware clock rank r reads for the given source.
func (m *Machine) Clock(r int, src ClockSource) *HWClock {
	if src == Monotonic {
		return m.mono[m.domainOf(r)]
	}
	return m.gtod[m.domainOf(r)]
}

// SameClock reports whether ranks a and b share a time source — the
// correctness precondition of ClockPropSync (paper §IV-B's
// clock_getcpuclockid check).
func (m *Machine) SameClock(a, b int) bool { return m.domainOf(a) == m.domainOf(b) }

// Level classifies the communication between two ranks.
type Level int

const (
	LevelSelf Level = iota
	LevelSocket
	LevelNode
	LevelCluster
)

// LevelOf returns the communication level between ranks a and b.
func (m *Machine) LevelOf(a, b int) Level {
	la, lb := m.locs[a], m.locs[b]
	switch {
	case a == b:
		return LevelSelf
	case la.Node != lb.Node:
		return LevelCluster
	case la.Socket != lb.Socket:
		return LevelNode
	default:
		return LevelSocket
	}
}

// Delay samples the one-way network delay for nbytes from rank src to dst.
func (m *Machine) Delay(src, dst, nbytes int, rng *rand.Rand) float64 {
	return m.link(src, dst).Sample(nbytes, rng)
}

// MinDelay returns the jitter-free delay between src and dst for nbytes.
func (m *Machine) MinDelay(src, dst, nbytes int) float64 {
	return m.link(src, dst).Min(nbytes)
}

func (m *Machine) link(src, dst int) LinkSpec {
	switch m.LevelOf(src, dst) {
	case LevelCluster:
		return m.Spec.InterNode
	case LevelNode:
		return m.Spec.IntraNode
	default:
		return m.Spec.IntraSocket
	}
}
