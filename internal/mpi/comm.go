package mpi

import (
	"fmt"
	"math"
	"sort"
)

// Comm is one rank's handle on a communicator. The ranks slice (communicator
// rank → world rank) is identical across members; rank is this process's
// position in it.
type Comm struct {
	p     *Proc
	id    int
	ranks []int
	rank  int
	// collSeq numbers this rank's collective calls on the communicator.
	// MPI requires all members to issue collectives in the same order, so
	// the counter agrees across members; Split and ShrinkSurvivors key the
	// derived communicator's identity on it.
	collSeq int
	// coll is the communicator's fused-collective slot, resolved from the
	// World on this member's first fused collective.
	coll *collSlot
}

// Rank returns the calling process's rank within the communicator.
//
//synclint:allocfree
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
//
//synclint:allocfree
func (c *Comm) Size() int { return len(c.ranks) }

// Proc returns the owning process.
func (c *Comm) Proc() *Proc { return c.p }

// WorldRank translates a communicator rank to a world rank.
//
//synclint:allocfree
func (c *Comm) WorldRank(r int) int { return c.ranks[r] }

// internal collective kinds for tag construction.
const (
	kindBarrier = iota
	kindBcast
	kindReduce
	kindAllreduce
	kindScatter
	kindGather
	_ // 6 was Allgather; the slot stays so kindSplit and kindAlltoall keep their tags
	kindSplit
	kindAlltoall
)

// nextTag advances the collective sequence and returns the internal tag
// for one collective operation. User tags must be non-negative; internal
// tags are negative. The tag is static per collective kind — as in Open
// MPI's coll base tags — because exact (comm, src, dst, tag) matching plus
// non-overtaking delivery already pairs successive collectives' messages
// in order on every directed channel: all members issue collectives in the
// same order, so the k-th send on a channel always meets the k-th receive.
// Static tags keep the mailbox set bounded, which is what lets the
// messaging layer recycle mailboxes instead of allocating a fresh queue
// per collective call.
//
//synclint:allocfree
func (c *Comm) nextTag(kind int) int {
	c.collSeq++
	return -(1 + kind)
}

// ColorUndefined makes Split return a nil communicator for the caller
// (MPI_UNDEFINED).
const ColorUndefined = -1

type splitKey struct {
	parent, seq, color int
}

// commID returns the agreed-upon id for the subcommunicator produced by
// split operation seq of parent for the given color. The first member to
// ask allocates it — ids follow the virtual-time order of the asking ranks,
// so p settles first; determinism follows from colors being identical
// across members.
func (p *Proc) commID(parent, seq, color int) int {
	p.settle()
	w := p.world
	k := splitKey{parent, seq, color}
	if id, ok := w.commIDs[k]; ok {
		return id
	}
	id := w.nextComm
	if id == math.MaxInt32 {
		panic("mpi: communicator ids exhausted: mailbox keys hold 32-bit ids")
	}
	w.nextComm++
	w.commIDs[k] = id
	return id
}

// Split partitions the communicator by color, ordering each group by
// (key, old rank), like MPI_Comm_split. Ranks passing ColorUndefined get a
// nil communicator. The (color, key) pairs are allgathered by Bruck's
// algorithm, MPICH's short-message allgather: ⌈log₂ n⌉ steps, at step k a
// message to rank r−2ᵏ and one from r+2ᵏ, so a split costs simulated time —
// the paper deliberately includes communicator creation in the hierarchical
// sync duration. The messages are sized and payload-free: each costs the
// 24 B per (source, color, key) triple of the blocks it stands for, while
// the pairs themselves travel through the split's shared table (see
// splitTable).
func (c *Comm) Split(color, key int) *Comm {
	seq := c.collSeq // nextTag increments; remember for the table and commID
	tag := c.nextTag(kindSplit)
	n := c.Size()
	t := c.p.world.splitTable(c.id, seq, n)
	t.entries[c.rank] = splitEntry{color, key}
	for d := 1; d < n; d <<= 1 {
		c.p.sendSized(c.id, c.ranks[(c.rank-d+n)%n], tag, 24*min(d, n-d))
		c.Recv((c.rank+d)%n, tag)
	}
	// Every member's entry is in the table now. A rank keeps only the
	// members of its own colour, so a split costs memory in its group's
	// size, not in n.
	type member struct{ rank, key int }
	var group []member
	if color != ColorUndefined {
		for r, e := range t.entries {
			if e.color == color {
				group = append(group, member{r, e.key})
			}
		}
	}
	if t.unread--; t.unread == 0 {
		delete(c.p.world.splits, splitAt{c.id, seq})
	}
	if color == ColorUndefined {
		return nil
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	newRanks := make([]int, len(group))
	myNew := -1
	for i, m := range group {
		newRanks[i] = c.ranks[m.rank]
		if m.rank == c.rank {
			myNew = i
		}
	}
	return &Comm{
		p:     c.p,
		id:    c.p.commID(c.id, seq, color),
		ranks: newRanks,
		rank:  myNew,
	}
}

// splitAt names one Split: the parent communicator and the collective
// sequence number the split took on it.
type splitAt struct{ comm, seq int }

type splitEntry struct{ color, key int }

// splitTable is one Split's (color, key) pairs, indexed by comm rank and
// shared by its members through the World. Each member writes its entry
// before its first send and reads the table after its last receive; by then
// the allgather has carried every other member's first send to it, so
// every entry was written before it looks. The last reader deletes the
// table: it is O(n) memory for the length of one split, never a per-rank
// copy.
type splitTable struct {
	entries []splitEntry
	unread  int // members that have not read the table yet
}

// splitTable returns the table of split seq on comm, creating it for n
// members on first use.
func (w *World) splitTable(comm, seq, n int) *splitTable {
	k := splitAt{comm, seq}
	t := w.splits[k]
	if t == nil {
		if w.splits == nil {
			w.splits = make(map[splitAt]*splitTable)
		}
		t = &splitTable{entries: make([]splitEntry, n), unread: n}
		w.splits[k] = t
	}
	return t
}

// SplitShared splits the communicator into per-node subcommunicators,
// like MPI_Comm_split_type(MPI_COMM_TYPE_SHARED).
func (c *Comm) SplitShared() *Comm {
	return c.Split(c.p.world.machine.Location(c.ranks[c.rank]).Node, c.rank)
}

// SplitSocket splits the communicator into per-socket subcommunicators
// (node and socket identify the group), the hwloc-assisted split used by
// H3HCA.
func (c *Comm) SplitSocket() *Comm {
	loc := c.p.world.machine.Location(c.ranks[c.rank])
	spn := c.p.world.machine.Spec.SocketsPerNode
	return c.Split(loc.Node*spn+loc.Socket, c.rank)
}

// SplitLeaders keeps only the ranks for which leader is true, forming the
// upper-level communicator of a hierarchy (e.g. one rank per node). Others
// get nil.
func (c *Comm) SplitLeaders(leader bool) *Comm {
	color := 0
	if !leader {
		color = ColorUndefined
	}
	return c.Split(color, c.rank)
}

func (c *Comm) checkRoot(root int) {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: root %d out of range (size %d)", root, c.Size()))
	}
}

// --- Fault-aware membership views ---
//
// These consult the job's fault injector as an *oracle failure detector*:
// every rank evaluates the same static crash schedule locally, so all
// members agree on the survivor set without exchanging a byte — the
// idealized equivalent of a perfect failure detector plus ULFM's
// MPI_Comm_shrink. Timeouts (RecvF64Timeout, RecvF64sTimeout) still
// matter: the oracle says who will die eventually, but a peer can die
// mid-exchange.

// DeadNow reports whether comm rank r is crashed at the current true time.
func (c *Comm) DeadNow(r int) bool {
	return c.p.world.cfg.Faults.CrashedAt(c.ranks[r], c.p.now())
}

// survivors returns the comm ranks with no scheduled crash, in rank order.
func (c *Comm) survivors() []int {
	var s []int
	for r, world := range c.ranks {
		if !c.p.world.cfg.Faults.CrashScheduled(world) {
			s = append(s, r)
		}
	}
	return s
}

// ShrinkSurvivors returns a communicator containing only the survivor ranks
// (MPI_Comm_shrink under a perfect failure detector). Doomed callers get
// nil. It is collective in discipline — every member must call it at the
// same point in its collective sequence — but costs no simulated
// communication, since the oracle view is identical on all ranks.
func (c *Comm) ShrinkSurvivors() *Comm {
	seq := c.collSeq
	c.collSeq++ // consume a collective slot so later tags stay aligned
	s := c.survivors()
	newRanks := make([]int, len(s))
	myNew := -1
	for i, r := range s {
		newRanks[i] = c.ranks[r]
		if r == c.rank {
			myNew = i
		}
	}
	if myNew == -1 {
		return nil
	}
	return &Comm{
		p: c.p,
		// Negative seq keys cannot collide with Split's (seq >= 0).
		id:    c.p.commID(c.id, -1-seq, 0),
		ranks: newRanks,
		rank:  myNew,
	}
}
