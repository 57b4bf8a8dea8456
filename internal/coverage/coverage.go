// Package coverage implements the compact edge-coverage map behind hybrid
// campaigns: an AFL-style fixed-size table of hashed edge counters with
// bucketed hit counts, deterministic signatures for input deduplication,
// and the rarity signal the mutational fuzzer's scheduler needs. A Map
// records one execution; a Global accumulates a whole corpus and remembers
// how many inputs reached each edge, which is what makes rare-edge-favoring
// scheduling cheap.
package coverage

// MapBits sizes the edge table; 2^16 counters keeps the map at 128 KiB and
// the collision rate negligible for per-instruction IR bodies.
const (
	MapBits = 16
	MapSize = 1 << MapBits
)

// Version participates in corpus cache keys: bump on any change to edge
// hashing, bucketing, or signatures so stale cached hybrid results are not
// replayed.
const Version = 1

// Map is one execution's edge-hit counters.
type Map struct {
	counts []uint16
}

// New returns an empty coverage map.
func New() *Map { return &Map{counts: make([]uint16, MapSize)} }

// ProgID derives a stable 64-bit identity for an IR program from its name
// (FNV-1a), mixed into every edge index so identical (from, to) pairs in
// different programs land on different counters.
func ProgID(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: full-avalanche, so consecutive
// statement indexes spread across the whole table.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// EdgeIndex hashes one control-flow edge into the table.
func EdgeIndex(progID uint64, from, to int) uint32 {
	h := mix64(progID ^ mix64(uint64(int64(from))<<32|uint64(uint32(to))))
	return uint32(h) & (MapSize - 1)
}

// Add records one traversal of an edge (saturating at the counter maximum).
func (m *Map) Add(progID uint64, from, to int) {
	m.AddIndex(EdgeIndex(progID, from, to))
}

// AddIndex records one traversal of an already-hashed edge.
func (m *Map) AddIndex(idx uint32) {
	if c := m.counts[idx]; c != ^uint16(0) {
		m.counts[idx] = c + 1
	}
}

// Bucket maps a raw hit count onto its AFL-style power-of-two class
// (0 for never hit, then 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+). Two
// executions differing only within a class produce equal signatures.
func Bucket(n uint16) uint8 {
	switch {
	case n == 0:
		return 0
	case n <= 3:
		return uint8(n)
	case n <= 7:
		return 4
	case n <= 15:
		return 5
	case n <= 31:
		return 6
	case n <= 127:
		return 7
	default:
		return 8
	}
}

// Count returns the number of distinct edges hit.
func (m *Map) Count() int {
	n := 0
	for _, c := range m.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Edges returns the hit edge indexes in ascending order.
func (m *Map) Edges() []uint32 {
	out := make([]uint32, 0, 64)
	for i, c := range m.counts {
		if c != 0 {
			out = append(out, uint32(i))
		}
	}
	return out
}

// Signature folds the bucketed map into a 64-bit fingerprint (FNV-1a over
// ascending (index, bucket) pairs). Deterministic: a pure function of the
// map contents, independent of insertion order, so it is safe to dedupe a
// corpus by signature across runs and worker counts.
func (m *Map) Signature() uint64 {
	h := uint64(14695981039346656037)
	step := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		step(byte(i))
		step(byte(i >> 8))
		step(Bucket(c))
	}
	return h
}

// Global accumulates corpus-wide coverage: the set of (edge, bucket)
// classes any input has reached, and the number of inputs that hit each
// edge. The latter is the scheduler's rarity signal.
type Global struct {
	buckets []uint16 // bitmask of bucket classes seen per edge
	inputs  []uint32 // number of inputs that hit the edge
	edges   int      // distinct edges seen
}

// NewGlobal returns an empty corpus accumulator.
func NewGlobal() *Global {
	return &Global{buckets: make([]uint16, MapSize), inputs: make([]uint32, MapSize)}
}

// AddInput folds one execution's map into the accumulator, returning the
// number of edges never seen before and the number of new (edge, bucket)
// classes (AFL's "new bits": nonzero exactly when the input is interesting).
func (g *Global) AddInput(m *Map) (newEdges, newBits int) {
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		if g.inputs[i] == 0 {
			newEdges++
			g.edges++
		}
		g.inputs[i]++
		bit := uint16(1) << Bucket(c)
		if g.buckets[i]&bit == 0 {
			g.buckets[i] |= bit
			newBits++
		}
	}
	return newEdges, newBits
}

// Edges returns the number of distinct edges any input has hit.
func (g *Global) Edges() int { return g.edges }

// Rarity counts how many of the given edges at most maxHits inputs have
// reached — the scheduling weight of an input holding those edges.
func (g *Global) Rarity(edges []uint32, maxHits uint32) int {
	n := 0
	for _, e := range edges {
		if c := g.inputs[e]; c > 0 && c <= maxHits {
			n++
		}
	}
	return n
}
