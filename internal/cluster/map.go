package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Range is an inclusive slot interval.
type Range struct {
	Start, End uint16
}

// String renders the range in config syntax ("12-340", or "12" when the
// range is a single slot).
func (r Range) String() string {
	if r.Start == r.End {
		return strconv.Itoa(int(r.Start))
	}
	return fmt.Sprintf("%d-%d", r.Start, r.End)
}

// Node is one primary in the cluster topology.
type Node struct {
	// ID is the operator-chosen node name ("n1").
	ID string
	// Addr is the node's client-facing host:port.
	Addr string
	// Ranges are the slot intervals the node owns.
	Ranges []Range
	// Replicas are the client-facing addresses of the replicas attached to
	// this primary (possibly empty). Replicas are the promotion
	// candidates when the primary dies; they serve no data reads and own
	// no slots of their own.
	Replicas []string
}

// Map is an immutable assignment of every slot to exactly one node. Build
// one with NewMap or ParseNodes; a nil Map means cluster mode is off.
type Map struct {
	nodes []Node
	owner [NumSlots]int // slot -> index into nodes
}

// NewMap validates and indexes a topology: every slot in [0, NumSlots)
// must be owned by exactly one node — a gap would silently drop a shard
// of the keyspace, an overlap would split-brain it.
func NewMap(nodes []Node) (*Map, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty topology")
	}
	m := &Map{nodes: append([]Node(nil), nodes...)}
	for i := range m.owner {
		m.owner[i] = -1
	}
	seenID := make(map[string]bool, len(nodes))
	seenAddr := make(map[string]bool, len(nodes))
	for ni, n := range m.nodes {
		if n.ID == "" || n.Addr == "" {
			return nil, fmt.Errorf("cluster: node %d needs both id and addr", ni)
		}
		if seenID[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		if seenAddr[n.Addr] {
			return nil, fmt.Errorf("cluster: duplicate node addr %q", n.Addr)
		}
		seenID[n.ID], seenAddr[n.Addr] = true, true
		if len(n.Ranges) == 0 {
			return nil, fmt.Errorf("cluster: node %q owns no slots", n.ID)
		}
		for _, rep := range n.Replicas {
			if !strings.Contains(rep, ":") {
				return nil, fmt.Errorf("cluster: node %q: replica address %q is not host:port", n.ID, rep)
			}
		}
		for _, r := range n.Ranges {
			if r.Start > r.End || int(r.End) >= NumSlots {
				return nil, fmt.Errorf("cluster: node %q: invalid range %s (slots are 0-%d)",
					n.ID, r, NumSlots-1)
			}
			for s := int(r.Start); s <= int(r.End); s++ {
				if prev := m.owner[s]; prev >= 0 {
					return nil, fmt.Errorf("cluster: slot %d owned by both %q and %q",
						s, m.nodes[prev].ID, n.ID)
				}
				m.owner[s] = ni
			}
		}
	}
	for s, o := range m.owner {
		if o < 0 {
			return nil, fmt.Errorf("cluster: slot %d is unassigned (the map must cover all %d slots)",
				s, NumSlots)
		}
	}
	return m, nil
}

// ParseNodes builds a Map from static config specs of the form
//
//	id=host:port:slots[/replica,replica,...]
//
// where slots is a comma-separated list of inclusive ranges ("0-341" or
// single slots "512") and the optional suffix after "/" lists the
// host:port addresses of replicas attached to the primary, e.g.
// "n1=127.0.0.1:7001:0-341,1000-1023/127.0.0.1:7101". One spec per node;
// together they must cover every slot exactly once.
func ParseNodes(specs []string) (*Map, error) {
	nodes := make([]Node, 0, len(specs))
	for _, spec := range specs {
		id, rest, ok := strings.Cut(spec, "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("cluster: bad node spec %q (want id=host:port:slots[/replicas])", spec)
		}
		// Replica addresses contain colons too, so peel the "/replicas"
		// suffix off before locating the slot list.
		var replicas []string
		if main, reps, hasReps := strings.Cut(rest, "/"); hasReps {
			rest = main
			for _, rep := range strings.Split(reps, ",") {
				if rep == "" {
					return nil, fmt.Errorf("cluster: bad node spec %q: empty replica address", spec)
				}
				replicas = append(replicas, rep)
			}
		}
		// The address itself contains a colon, so the slot list is
		// everything after the last one.
		cut := strings.LastIndexByte(rest, ':')
		if cut <= 0 || cut == len(rest)-1 {
			return nil, fmt.Errorf("cluster: bad node spec %q (want id=host:port:slots[/replicas])", spec)
		}
		addr, slotSpec := rest[:cut], rest[cut+1:]
		if !strings.Contains(addr, ":") {
			return nil, fmt.Errorf("cluster: bad node spec %q: address %q is not host:port", spec, addr)
		}
		ranges, err := parseRanges(slotSpec)
		if err != nil {
			return nil, fmt.Errorf("cluster: node spec %q: %w", spec, err)
		}
		nodes = append(nodes, Node{ID: id, Addr: addr, Ranges: ranges, Replicas: replicas})
	}
	return NewMap(nodes)
}

func parseRanges(spec string) ([]Range, error) {
	var out []Range
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		start, err := strconv.ParseUint(lo, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad slot %q", part)
		}
		end := start
		if isRange {
			if end, err = strconv.ParseUint(hi, 10, 16); err != nil {
				return nil, fmt.Errorf("bad slot range %q", part)
			}
		}
		out = append(out, Range{Start: uint16(start), End: uint16(end)})
	}
	return out, nil
}

// NodeForSlot returns the node owning slot s.
func (m *Map) NodeForSlot(s uint16) Node { return m.nodes[m.owner[s%NumSlots]] }

// NodeForKey returns the node owning the key's slot.
func (m *Map) NodeForKey(key string) Node { return m.NodeForSlot(Slot(key)) }

// NodeByID looks a node up by its operator-chosen id.
func (m *Map) NodeByID(id string) (Node, bool) {
	for _, n := range m.nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// Nodes returns the topology in declaration order. The slice is a copy.
func (m *Map) Nodes() []Node { return append([]Node(nil), m.nodes...) }

// EvenSplit builds the ranges for a NumSlots space divided as evenly as
// possible over n nodes: the canonical topology tests, examples and quick
// deployments use. Node i of n gets the i-th contiguous chunk.
func EvenSplit(n int) [][]Range {
	out := make([][]Range, n)
	per := NumSlots / n
	extra := NumSlots % n
	start := 0
	for i := 0; i < n; i++ {
		size := per
		if i < extra {
			size++
		}
		out[i] = []Range{{Start: uint16(start), End: uint16(start + size - 1)}}
		start += size
	}
	return out
}

// SlotRanges renders every node's ranges sorted by start slot, the shape
// CLUSTER SLOTS serves: one (Range, Node) pair per contiguous interval.
type SlotRange struct {
	Range Range
	Node  Node
}

// withOwner derives a new Map identical to m except that slot is owned by
// nodes[toIdx], with every node's Ranges rebuilt from the new assignment.
// Unlike NewMap it tolerates a node ending up with zero slots — migrating
// the last slot off a node is exactly how a drain finishes.
func (m *Map) withOwner(slot uint16, toIdx int) *Map {
	next := &Map{nodes: append([]Node(nil), m.nodes...), owner: m.owner}
	next.owner[slot%NumSlots] = toIdx
	next.rebuildRanges()
	return next
}

// withAddr derives a new Map with node id's address replaced (the failover
// re-point: a promoted replica takes over its dead primary's identity) and
// the promoted address removed from the node's replica list.
func (m *Map) withAddr(id, addr string) (*Map, bool) {
	next := &Map{nodes: append([]Node(nil), m.nodes...), owner: m.owner}
	for i := range next.nodes {
		if next.nodes[i].ID != id {
			continue
		}
		next.nodes[i].Addr = addr
		var reps []string
		for _, rep := range next.nodes[i].Replicas {
			if rep != addr {
				reps = append(reps, rep)
			}
		}
		next.nodes[i].Replicas = reps
		return next, true
	}
	return nil, false
}

// rebuildRanges recomputes every node's contiguous Ranges from the owner
// array, so derived maps keep Ranges and owner consistent.
func (m *Map) rebuildRanges() {
	for i := range m.nodes {
		m.nodes[i].Ranges = nil
	}
	start := 0
	for s := 1; s <= NumSlots; s++ {
		if s == NumSlots || m.owner[s] != m.owner[start] {
			ni := m.owner[start]
			m.nodes[ni].Ranges = append(m.nodes[ni].Ranges,
				Range{Start: uint16(start), End: uint16(s - 1)})
			start = s
		}
	}
}

// SlotRanges lists every contiguous owned interval, sorted by start slot.
func (m *Map) SlotRanges() []SlotRange {
	var out []SlotRange
	for _, n := range m.nodes {
		for _, r := range n.Ranges {
			out = append(out, SlotRange{Range: r, Node: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Range.Start < out[j].Range.Start })
	return out
}
