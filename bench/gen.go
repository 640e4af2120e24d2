package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

const (
	valueSize    = 100 // bytes per record value
	zipfS        = 1.1 // key-popularity skew (math/rand.NewZipf s)
	userKeys     = 256 // records per data subject on rights-under-write
	freshKeys    = 8   // records of each single-use subject that is written, then forgotten
	getUsersPer  = 9   // GETUSERs per FORGETUSER in the rights client's cycle
	benchActor   = "bench-controller"
	benchPurpose = "service"
)

// opKind is one operation type a client issues.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opGetUser
	opPutBatch // writes a fresh single-use subject's freshKeys records
	opForget   // erases the subject the previous opPutBatch wrote
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "getuser", "putbatch", "forget"}

// op is one generated operation. idx is a key index for get/put, an owner
// index for getuser, and the fresh subject's serial for putbatch/forget.
type op struct {
	kind opKind
	idx  int
}

// opGen yields one client's operation sequence; it is a pure function of
// the seed and the client number.
type opGen interface{ next() op }

// dataset is the generated records of one run. A value is a pure function
// of (seed, key), so every read can be verified without remembering writes.
type dataset struct {
	seed   int64
	owners []string
	keys   []string
	values [][]byte
	perm   []int32 // zipf rank -> key index, so hot keys spread over owners
}

func newDataset(seed int64, records, owners int) *dataset {
	d := &dataset{seed: seed, owners: make([]string, owners), keys: make([]string, records), values: make([][]byte, records)}
	for i := range d.owners {
		d.owners[i] = fmt.Sprintf("u%05d", i)
	}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("k%07d", i)
		d.values[i] = d.valueInto(nil, d.keys[i])
	}
	d.perm = make([]int32, records)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(records) {
		d.perm[i] = int32(p)
	}
	return d
}

// owner returns the data subject of key i: records are dealt round-robin,
// so each owner holds records/owners keys.
func (d *dataset) owner(i int) string { return d.owners[i%len(d.owners)] }

// freshOwner names the single-use subject a rights client creates and then
// erases; prefix keeps the traced replays' subjects apart from the run's.
func freshOwner(prefix string, client, serial int) string {
	return fmt.Sprintf("%s%d-%d", prefix, client, serial)
}

func freshKey(owner string, j int) string { return fmt.Sprintf("%s:%d", owner, j) }

// valueInto appends key's value to buf[:0] and returns it.
func (d *dataset) valueInto(buf []byte, key string) []byte {
	x := uint64(14695981039346656037) // FNV-1a of key, inline so a check allocates nothing
	for i := 0; i < len(key); i++ {
		x = (x ^ uint64(key[i])) * 1099511628211
	}
	x ^= uint64(d.seed) * 0x9e3779b97f4a7c15
	buf = buf[:0]
	for len(buf) < valueSize {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for k := 0; k < 8 && len(buf) < valueSize; k++ {
			buf = append(buf, byte(z>>(8*k)))
		}
	}
	return buf
}

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
}

// pointGen issues GETs and PUTs on zipfian-chosen keys.
type pointGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int32
	readPct int
}

func newPointGen(d *dataset, client, readPct int) *pointGen {
	rng := clientRand(d.seed, client)
	return &pointGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(d.keys)-1)), perm: d.perm, readPct: readPct}
}

func (g *pointGen) next() op {
	kind := opPut
	if g.rng.Intn(100) < g.readPct {
		kind = opGet
	}
	return op{kind, int(g.perm[g.zipf.Uint64()])}
}

// rightsGen cycles getUsersPer GETUSERs on uniformly chosen subjects, then
// writes one fresh subject and forgets it. Creating the subject inside the
// cycle (not from a pre-loaded pool) keeps a fixed-time run from ever
// running out of subjects to erase, however fast GETUSER becomes.
type rightsGen struct {
	rng    *rand.Rand
	owners int
	pos    int
	serial int
}

func newRightsGen(d *dataset, client int) *rightsGen {
	return &rightsGen{rng: clientRand(d.seed, client), owners: len(d.owners)}
}

func (g *rightsGen) next() op {
	pos := g.pos
	g.pos = (g.pos + 1) % (getUsersPer + 2)
	switch {
	case pos < getUsersPer:
		return op{opGetUser, g.rng.Intn(g.owners)}
	case pos == getUsersPer:
		return op{opPutBatch, g.serial}
	default:
		g.serial++
		return op{opForget, g.serial - 1}
	}
}

// roundRobin interleaves generators; the traced single-client replay uses
// it to play every client's role from one goroutine.
type roundRobin struct {
	gens []opGen
	i    int
}

func (r *roundRobin) next() op {
	g := r.gens[r.i]
	r.i = (r.i + 1) % len(r.gens)
	return g.next()
}

// sequenceHash folds the first n operations of g into one number, so tests
// can pin "same seed, same inputs".
func sequenceHash(g opGen, n int) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for i := 0; i < n; i++ {
		o := g.next()
		b[0] = byte(o.kind)
		for k := 0; k < 8; k++ {
			b[1+k] = byte(uint64(o.idx) >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
