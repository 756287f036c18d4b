package sdcquery

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// answerCache is the bounded, sharded answer cache of the sustained-load
// serving path: repeated (principal, canonical query) shapes are served
// from memory instead of re-scanning the dataset and re-running the
// protection. It is only consulted for protections whose serial answer is a
// pure function of (principal, query) — every protection except overlap
// restriction, whose repeat-denial depends on the answered history — so a
// cache hit is byte-identical to what the uncached serial path would have
// released. Under DifferentialPrivacy a hit additionally IS the accounting
// fix: the noise key makes a repeat a re-release of the identical value, so
// it must not debit ε again (the seed double-debited; see Server.AskAs).
//
// Shards bound lock contention on the hit path; each shard evicts FIFO at
// its per-shard cap, so total memory is bounded by the configured capacity
// regardless of workload.
type answerCache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
}

const cacheShards = 16

type cacheShard struct {
	mu   sync.Mutex
	m    map[string]Answer
	fifo []string // insertion order, oldest first
	cap  int
}

// newAnswerCache builds a cache retaining at most capacity answers in
// total, spread over the shards (each shard holds at least one entry).
func newAnswerCache(capacity int) *answerCache {
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	c := &answerCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]Answer)
		c.shards[i].cap = per
	}
	return c
}

func (c *answerCache) shard(key string) *cacheShard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &c.shards[h.Sum64()%cacheShards]
}

// get returns the cached answer for key, counting the hit or miss.
func (c *answerCache) get(key string) (Answer, bool) {
	a, ok := c.peek(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return a, ok
}

// peek returns the cached answer for key without counting a hit or miss:
// a probe that decides whether to evaluate ahead of the counted get, or a
// re-check under the privacy-state lock after it.
func (c *answerCache) peek(key string) (Answer, bool) {
	s := c.shard(key)
	s.mu.Lock()
	a, ok := s.m[key]
	s.mu.Unlock()
	return a, ok
}

// put stores the answer under key, evicting the shard's oldest entry when
// full. Re-storing an existing key refreshes the value without growing the
// shard.
func (c *answerCache) put(key string, a Answer) {
	s := c.shard(key)
	s.mu.Lock()
	if _, exists := s.m[key]; !exists {
		if len(s.fifo) >= s.cap {
			delete(s.m, s.fifo[0])
			s.fifo = s.fifo[1:]
		}
		s.fifo = append(s.fifo, key)
	}
	s.m[key] = a
	s.mu.Unlock()
}

// stats reports lifetime hits and misses plus the current entry count.
func (c *answerCache) stats() (hits, misses int64, entries int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += len(s.m)
		s.mu.Unlock()
	}
	return c.hits.Load(), c.misses.Load(), entries
}
