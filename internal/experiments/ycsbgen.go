package experiments

// The YCSB key-choice generators: zipfian with YCSB's scrambling, latest,
// and uniform.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Growable produces the next item index for a request distribution and
// tracks inserts.
type Growable interface {
	// Next returns an item in [0, n) where n is the generator's item count
	// at the time of the call.
	Next(r *rand.Rand) int64
	// Grow extends the item space by one (after an insert).
	Grow()
}

// UniformGenerator picks uniformly from [0, N).
type UniformGenerator struct{ n atomic.Int64 }

// NewUniform creates a uniform generator over [0, n).
func NewUniform(n int64) *UniformGenerator {
	g := &UniformGenerator{}
	g.n.Store(n)
	return g
}

// Next implements Growable.
func (g *UniformGenerator) Next(r *rand.Rand) int64 {
	if n := g.n.Load(); n > 0 {
		return r.Int63n(n)
	}
	return 0
}

// Grow implements Growable.
func (g *UniformGenerator) Grow() { g.n.Add(1) }

// ZipfianConstant is YCSB's default skew (θ).
const ZipfianConstant = 0.99

// ZipfianGenerator implements the incremental zipfian algorithm from Gray
// et al. "Quickly Generating Billion-Record Synthetic Databases", as used
// by YCSB. Item 0 is the most popular.
type ZipfianGenerator struct {
	mu                         sync.Mutex
	items                      int64
	theta, zetan, zeta2, alpha float64
	eta                        float64
	countForZeta               int64
}

// NewZipfian creates a zipfian generator over [0, items) with the default
// YCSB constant.
func NewZipfian(items int64) *ZipfianGenerator {
	g := &ZipfianGenerator{items: items, theta: ZipfianConstant}
	g.zeta2 = zetaStatic(2, g.theta)
	g.zetan = zetaStatic(items, g.theta)
	g.countForZeta = items
	g.alpha = 1.0 / (1.0 - g.theta)
	g.eta = g.etaLocked()
	return g
}

func (g *ZipfianGenerator) etaLocked() float64 {
	return (1 - math.Pow(2.0/float64(g.items), 1-g.theta)) / (1 - g.zeta2/g.zetan)
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(0); i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
	}
	return sum
}

// Next implements Growable.
func (g *ZipfianGenerator) Next(r *rand.Rand) int64 {
	v, _ := g.next(r)
	return v
}

// next draws an item and returns it with the item count it was drawn from.
func (g *ZipfianGenerator) next(r *rand.Rand) (v, items int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.items > g.countForZeta {
		// Incremental recomputation after Grow: extend zeta.
		for i := g.countForZeta; i < g.items; i++ {
			g.zetan += 1.0 / math.Pow(float64(i+1), g.theta)
		}
		g.countForZeta = g.items
		g.eta = g.etaLocked()
	}
	u := r.Float64()
	uz := u * g.zetan
	switch {
	case uz < 1.0:
		return 0, g.items
	case uz < 1.0+math.Pow(0.5, g.theta):
		return 1, g.items
	}
	return int64(float64(g.items) * math.Pow(g.eta*u-g.eta+1, g.alpha)), g.items
}

// Grow implements Growable.
func (g *ZipfianGenerator) Grow() {
	g.mu.Lock()
	g.items++
	g.mu.Unlock()
}

// ScrambledZipfianGenerator spreads the zipfian popularity over the whole
// keyspace by hashing, exactly as YCSB does, so the hottest keys are not
// clustered at the low indexes.
type ScrambledZipfianGenerator struct{ *ZipfianGenerator }

// NewScrambledZipfian creates the standard YCSB request chooser.
func NewScrambledZipfian(items int64) ScrambledZipfianGenerator {
	return ScrambledZipfianGenerator{NewZipfian(items)}
}

// Next implements Growable.
func (g ScrambledZipfianGenerator) Next(r *rand.Rand) int64 {
	v, n := g.next(r)
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
	return int64(h.Sum64() % uint64(n))
}

// LatestGenerator skews toward recently inserted items (workload D: "read
// latest"). It draws a zipfian offset back from the newest item.
type LatestGenerator struct{ *ZipfianGenerator }

// NewLatest creates a latest-skewed generator over [0, items).
func NewLatest(items int64) LatestGenerator { return LatestGenerator{NewZipfian(items)} }

// Next implements Growable.
func (g LatestGenerator) Next(r *rand.Rand) int64 {
	off, n := g.next(r)
	return max(n-1-off, 0)
}
