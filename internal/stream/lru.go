package stream

import "sma/internal/core"

// lru is a small least-recently-used cache of prepared frames keyed by
// frame index. Streaming capacities are a handful of entries, so a slice
// scan in recency order beats pointer-chasing a list.
type lru struct {
	cap   int
	keys  []int // recency order, most-recently-used last
	preps map[int]*core.FramePrep
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, preps: make(map[int]*core.FramePrep, capacity)}
}

// get returns the cached preparation for frame k, marking it most
// recently used.
func (c *lru) get(k int) (*core.FramePrep, bool) {
	fp, ok := c.preps[k]
	if ok {
		c.touch(k)
	}
	return fp, ok
}

// put inserts (or refreshes) frame k and reports how many entries the
// capacity bound evicted (0 or 1).
func (c *lru) put(k int, fp *core.FramePrep) int {
	if _, ok := c.preps[k]; ok {
		c.preps[k] = fp
		c.touch(k)
		return 0
	}
	c.preps[k] = fp
	c.keys = append(c.keys, k)
	if len(c.keys) <= c.cap {
		return 0
	}
	delete(c.preps, c.keys[0])
	c.keys = c.keys[:copy(c.keys, c.keys[1:])]
	return 1
}

// touch moves k to the most-recently-used position.
func (c *lru) touch(k int) {
	for i, key := range c.keys {
		if key == k {
			copy(c.keys[i:], c.keys[i+1:])
			c.keys[len(c.keys)-1] = k
			return
		}
	}
}
