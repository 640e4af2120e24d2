package core

import (
	"slices"
	"sort"
)

// chunkKeys is the most keys one chunk of an orderedKeys holds, so the most
// keys one add or remove moves.
const chunkKeys = 64

// orderedKeys is the set of keys the metadata index keeps per owner and per
// purpose, held in ascending order so a reader copies it out sorted. The
// keys sit in chunks: each chunk is sorted and non-empty, holds at most
// chunkKeys keys, and every key of a chunk is below every key of the next.
// A change binary-searches for its chunk and within it and moves at most
// chunkKeys keys; only a split or a dropped chunk also moves the chunk
// headers after it. A plain sorted slice would move half the set per
// change, and erase a large owner in quadratic time.
type orderedKeys struct {
	chunks [][]string
	n      int
}

// chunkFor returns the index of the chunk key belongs in: the first whose
// last key is not below key, else the last. The set must not be empty.
func (o *orderedKeys) chunkFor(key string) int {
	i := sort.Search(len(o.chunks), func(i int) bool {
		c := o.chunks[i]
		return c[len(c)-1] >= key
	})
	return min(i, len(o.chunks)-1)
}

// add puts key in the set.
func (o *orderedKeys) add(key string) {
	if o.n == 0 {
		o.chunks = [][]string{{key}}
		o.n = 1
		return
	}
	i := o.chunkFor(key)
	c := o.chunks[i]
	j, found := slices.BinarySearch(c, key)
	if found {
		return
	}
	o.n++
	switch {
	case len(c) < chunkKeys:
		o.chunks[i] = slices.Insert(c, j, key)
	case i == len(o.chunks)-1 && j == len(c):
		// A key past the end of the set, as ascending inserts make: a new
		// chunk, which leaves the full one full.
		o.chunks = append(o.chunks, []string{key})
	default:
		// A full chunk splits into two halves, each with room to grow.
		h := len(c) / 2
		right := make([]string, len(c)-h, chunkKeys)
		copy(right, c[h:])
		clear(c[h:])
		left := c[:h]
		if j <= h {
			left = slices.Insert(left, j, key)
		} else {
			right = slices.Insert(right, j-h, key)
		}
		o.chunks[i] = left
		o.chunks = slices.Insert(o.chunks, i+1, right)
	}
}

// remove takes key out of the set; a chunk it empties is dropped.
func (o *orderedKeys) remove(key string) {
	if o.n == 0 {
		return
	}
	i := o.chunkFor(key)
	c := o.chunks[i]
	j, found := slices.BinarySearch(c, key)
	if !found {
		return
	}
	o.n--
	if len(c) == 1 {
		o.chunks = slices.Delete(o.chunks, i, i+1)
		return
	}
	o.chunks[i] = slices.Delete(c, j, j+1)
}

// appendTo appends the keys to out in ascending order.
func (o *orderedKeys) appendTo(out []string) []string {
	for _, c := range o.chunks {
		out = append(out, c...)
	}
	return out
}
