// Package pir implements private information retrieval, the technology of
// the paper's user-privacy dimension ([8], Chor, Goldreich, Kushilevitz &
// Sudan): the multi-server information-theoretic XOR scheme, a single-server
// computational scheme based on quadratic residuosity (Kushilevitz &
// Ostrovsky), keyword PIR on top of either, and a PIR-backed statistical
// query layer that reproduces the paper's Section 3 attack scenario.
//
// Every server records the query vectors it receives; the user-privacy
// evaluator inspects those logs to verify that a server's view is
// statistically independent of the retrieved index. The logs are bounded
// ring buffers (newest-window retention) so a long-running replica cannot
// grow without bound; retained and dropped counts are exposed for /metrics.
//
// The answer path is the hot loop of the whole stack — PIR servers touch
// the entire database on every query by design — so ITServer packs the
// database into uint64 words at construction and fans block ranges out
// over the internal/par worker pool. XOR is exact and associative, and the
// in-order reduction over fixed-size chunks makes every answer
// byte-identical at any worker count (cmd/bench checks this on every
// timed answer).
package pir

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"privacy3d/internal/par"
)

// DefaultQueryLogCap bounds each server's query log: the newest window a
// replica retains for the user-privacy evaluator. Old entries beyond the
// cap are dropped (and counted) instead of accumulating until OOM.
const DefaultQueryLogCap = 4096

// ITServer is one server of the information-theoretic scheme. All servers
// hold the same replicated database of equal-size blocks, packed as uint64
// words for the XOR kernel. Answer and QueryLog are safe for concurrent
// use (the HTTP transport serves requests concurrently).
type ITServer struct {
	numBlocks int
	blockSize int
	wpb       int      // words per block (blockSize rounded up to 8 bytes)
	words     []uint64 // numBlocks × wpb, row-major, zero-padded tails

	// queryLog records the subset vectors received (one bit per block),
	// bounded to the newest DefaultQueryLogCap entries.
	queryLog *par.Ring[[]byte]

	answers    atomic.Int64 // total Answer calls served
	wordsXORed atomic.Int64 // total uint64 XOR operations performed
}

// NewITServer creates a server over the given block database. Blocks must
// be non-empty and equally sized.
func NewITServer(blocks [][]byte) (*ITServer, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("pir: empty database")
	}
	size := len(blocks[0])
	if size == 0 {
		return nil, fmt.Errorf("pir: zero-size blocks")
	}
	for i, b := range blocks {
		if len(b) != size {
			return nil, fmt.Errorf("pir: block %d has %d bytes, want %d", i, len(b), size)
		}
	}
	wpb := (size + 7) / 8
	s := &ITServer{
		numBlocks: len(blocks),
		blockSize: size,
		wpb:       wpb,
		words:     make([]uint64, len(blocks)*wpb),
		queryLog:  par.NewRing[[]byte](DefaultQueryLogCap),
	}
	for i, b := range blocks {
		packWords(s.words[i*wpb:(i+1)*wpb], b)
	}
	return s, nil
}

// packWords packs b little-endian into dst (len(dst) = ceil(len(b)/8)),
// zero-padding the final partial word.
func packWords(dst []uint64, b []byte) {
	full := len(b) / 8
	for w := 0; w < full; w++ {
		dst[w] = binary.LittleEndian.Uint64(b[w*8:])
	}
	if rem := len(b) % 8; rem > 0 {
		var buf [8]byte
		copy(buf[:], b[full*8:])
		dst[full] = binary.LittleEndian.Uint64(buf[:])
	}
}

// unpackWords writes the first len(dst) bytes of the little-endian word
// sequence src into dst.
func unpackWords(dst []byte, src []uint64) {
	full := len(dst) / 8
	for w := 0; w < full; w++ {
		binary.LittleEndian.PutUint64(dst[w*8:], src[w])
	}
	if rem := len(dst) % 8; rem > 0 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], src[full])
		copy(dst[full*8:], buf[:rem])
	}
}

// Blocks returns the number of database blocks.
func (s *ITServer) Blocks() int { return s.numBlocks }

// BlockSize returns the size of each block in bytes.
func (s *ITServer) BlockSize() int { return s.blockSize }

// Block returns a copy of block i (the packed words are authoritative).
func (s *ITServer) Block(i int) []byte {
	out := make([]byte, s.blockSize)
	unpackWords(out, s.words[i*s.wpb:(i+1)*s.wpb])
	return out
}

// checkSubset validates a subset vector's width and rejects set bits
// beyond the block count: a malformed query must fail loudly rather than
// masquerade as a valid one (the tail bits would silently be ignored).
func (s *ITServer) checkSubset(subset []byte) error {
	vecLen := (s.numBlocks + 7) / 8
	if len(subset) != vecLen {
		return fmt.Errorf("pir: subset vector has %d bytes, want %d", len(subset), vecLen)
	}
	if tail := s.numBlocks % 8; tail != 0 {
		if extra := subset[vecLen-1] >> tail; extra != 0 {
			return fmt.Errorf("pir: subset vector has bits set beyond block %d (tail byte %#02x)",
				s.numBlocks-1, subset[vecLen-1])
		}
	}
	return nil
}

// Answer XORs together the blocks selected by the subset bit vector
// (subset[i>>3]>>(i&7)&1 selects block i) and logs the query. The XOR runs
// as a word-parallel kernel on the internal/par pool: block ranges are
// mapped to per-chunk partial accumulators which are folded in chunk
// order, so the answer is byte-identical at any worker count.
func (s *ITServer) Answer(subset []byte) ([]byte, error) {
	if err := s.checkSubset(subset); err != nil {
		return nil, err
	}
	// The log append is outside the kernel's critical path: a bounded ring
	// with its own short lock, never the XOR loop.
	s.queryLog.Append(append([]byte(nil), subset...))
	s.answers.Add(1)

	wpb := s.wpb
	acc := par.MapReduce(par.Default(), s.numBlocks, nil,
		func(lo, hi int) []uint64 {
			var part []uint64
			var xored int64
			for b := lo; b < hi; b++ {
				if subset[b>>3]>>(b&7)&1 == 0 {
					continue
				}
				if part == nil {
					part = make([]uint64, wpb)
				}
				row := s.words[b*wpb : (b+1)*wpb]
				for w, v := range row {
					part[w] ^= v
				}
				xored += int64(wpb)
			}
			if xored > 0 {
				s.wordsXORed.Add(xored)
			}
			return part
		},
		func(acc, part []uint64) []uint64 {
			if part == nil {
				return acc
			}
			if acc == nil {
				return part // freshly allocated per chunk: safe to adopt
			}
			for w, v := range part {
				acc[w] ^= v
			}
			return acc
		})

	out := make([]byte, s.blockSize)
	if acc != nil {
		unpackWords(out, acc)
	}
	return out, nil
}

// AnswerBatch answers m subset queries in ONE pass over the database: each
// block row is loaded once and XORed into every selected per-query
// accumulator, instead of m separate passes re-streaming the whole word
// array through the cache. XOR is exact and associative, so each returned
// answer is byte-identical to Answer on the same subset, at any worker
// count. Every query in the batch is logged and counted individually; a
// malformed subset fails the whole batch before any work or logging.
func (s *ITServer) AnswerBatch(subsets [][]byte) ([][]byte, error) {
	for i, sub := range subsets {
		if err := s.checkSubset(sub); err != nil {
			return nil, fmt.Errorf("pir: batch query %d: %w", i, err)
		}
	}
	if len(subsets) == 0 {
		return nil, nil
	}
	for _, sub := range subsets {
		s.queryLog.Append(append([]byte(nil), sub...))
	}
	s.answers.Add(int64(len(subsets)))

	wpb, m := s.wpb, len(subsets)
	acc := par.MapReduce(par.Default(), s.numBlocks, nil,
		func(lo, hi int) [][]uint64 {
			var part [][]uint64
			var xored int64
			for b := lo; b < hi; b++ {
				row := s.words[b*wpb : (b+1)*wpb]
				for q := 0; q < m; q++ {
					if subsets[q][b>>3]>>(b&7)&1 == 0 {
						continue
					}
					if part == nil {
						part = make([][]uint64, m)
					}
					if part[q] == nil {
						part[q] = make([]uint64, wpb)
					}
					dst := part[q]
					for w, v := range row {
						dst[w] ^= v
					}
					xored += int64(wpb)
				}
			}
			if xored > 0 {
				s.wordsXORed.Add(xored)
			}
			return part
		},
		func(acc, part [][]uint64) [][]uint64 {
			if part == nil {
				return acc
			}
			if acc == nil {
				return part // freshly allocated per chunk: safe to adopt
			}
			for q := range part {
				switch {
				case part[q] == nil:
				case acc[q] == nil:
					acc[q] = part[q]
				default:
					dst := acc[q]
					for w, v := range part[q] {
						dst[w] ^= v
					}
				}
			}
			return acc
		})

	out := make([][]byte, m)
	for q := range out {
		out[q] = make([]byte, s.blockSize)
		if acc != nil && acc[q] != nil {
			unpackWords(out[q], acc[q])
		}
	}
	return out, nil
}

// QueryLog returns a copy of the retained subset vectors this server has
// observed (oldest first) — its window onto all users' activity.
func (s *ITServer) QueryLog() [][]byte {
	return s.queryLog.Snapshot()
}

// QueryLogStats reports the bounded log's state: entries retained,
// entries dropped (overwritten) since construction, and the cap.
func (s *ITServer) QueryLogStats() (retained int, dropped int64, capacity int) {
	return s.queryLog.Len(), s.queryLog.Dropped(), s.queryLog.Cap()
}

// SetQueryLogCap replaces the query log with an empty ring of the given
// capacity. Call it before serving traffic; it discards the current log.
func (s *ITServer) SetQueryLogCap(n int) {
	s.queryLog = par.NewRing[[]byte](n)
}

// Answers returns the number of Answer calls served.
func (s *ITServer) Answers() int64 { return s.answers.Load() }

// WordsXORed returns the total uint64 XOR operations performed by the
// answer kernel — the engine's unit of useful work.
func (s *ITServer) WordsXORed() int64 { return s.wordsXORed.Load() }

// ITClient retrieves blocks privately from k ≥ 2 non-colluding replicated
// servers. It is safe for concurrent use: the query-randomness stream is
// serialized under a mutex, and replica fan-out is concurrent.
type ITClient struct {
	servers []*ITServer
	mu      sync.Mutex
	rng     *rand.Rand
}

// NewITClient wires a client to its servers.
func NewITClient(servers []*ITServer, seed uint64) (*ITClient, error) {
	if len(servers) < 2 {
		return nil, fmt.Errorf("pir: information-theoretic PIR needs ≥ 2 servers, got %d", len(servers))
	}
	n, bs := servers[0].Blocks(), servers[0].BlockSize()
	for i, s := range servers {
		if s.Blocks() != n || s.BlockSize() != bs {
			return nil, fmt.Errorf("pir: server %d database shape differs", i)
		}
	}
	return &ITClient{servers: servers, rng: rand.New(rand.NewPCG(seed, seed^0xdeadbeef))}, nil
}

// subsetQueries builds the k per-server subset vectors hiding index:
// k−1 uniformly random subsets plus one correcting their XOR to {index}.
// randByte draws the next byte of query randomness.
func subsetQueries(k, n, index int, randByte func() byte) [][]byte {
	vecLen := (n + 7) / 8
	subsets := make([][]byte, k)
	last := make([]byte, vecLen)
	for s := 0; s < k-1; s++ {
		v := make([]byte, vecLen)
		for j := range v {
			v[j] = randByte()
		}
		// Mask tail bits beyond n: servers reject vectors selecting
		// nonexistent blocks.
		if n%8 != 0 {
			v[vecLen-1] &= byte(1<<(n%8)) - 1
		}
		subsets[s] = v
		for j := range last {
			last[j] ^= v[j]
		}
	}
	last[index>>3] ^= 1 << (index & 7)
	subsets[k-1] = last
	return subsets
}

// queriesFor draws one retrieval's worth of subsets from the client's
// randomness stream (serialized so concurrent retrievals stay well-defined).
func (c *ITClient) queriesFor(index int) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return subsetQueries(len(c.servers), c.servers[0].Blocks(), index, func() byte {
		return byte(c.rng.Uint64())
	})
}

// Retrieve privately fetches block index: the client sends k−1 uniformly
// random subsets and one subset correcting their XOR to {index}; the XOR of
// all answers is the block. Each individual server sees a uniformly random
// subset regardless of index. All replicas are queried concurrently.
func (c *ITClient) Retrieve(index int) ([]byte, error) {
	n := c.servers[0].Blocks()
	if index < 0 || index >= n {
		return nil, fmt.Errorf("pir: index %d out of range [0,%d)", index, n)
	}
	subsets := c.queriesFor(index)
	k := len(c.servers)
	answers := make([][]byte, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := range c.servers {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			answers[s], errs[s] = c.servers[s].Answer(subsets[s])
		}(s)
	}
	wg.Wait()
	out := make([]byte, c.servers[0].BlockSize())
	for s := range c.servers {
		if errs[s] != nil {
			return nil, fmt.Errorf("pir: server %d: %w", s, errs[s])
		}
		for j := range out {
			out[j] ^= answers[s][j]
		}
	}
	return out, nil
}

// RetrieveBatch privately fetches the given block indices — the batched
// path the Section 3 RangeStats scenario uses instead of paying per-cell
// sequential round trips. Each server receives its whole column of subset
// vectors as ONE AnswerBatch call, so the replica streams its database once
// for the entire batch instead of once per index. The query randomness is
// drawn sequentially in index order, and per-index answers are XOR-folded
// in server order, so results are identical to len(indices) sequential
// Retrieve calls at any worker count.
func (c *ITClient) RetrieveBatch(indices []int) ([][]byte, error) {
	n := c.servers[0].Blocks()
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("pir: index %d out of range [0,%d)", idx, n)
		}
	}
	if len(indices) == 0 {
		return nil, nil
	}
	k := len(c.servers)
	perServer := make([][][]byte, k)
	for s := range perServer {
		perServer[s] = make([][]byte, len(indices))
	}
	for i, idx := range indices {
		qs := c.queriesFor(idx)
		for s := 0; s < k; s++ {
			perServer[s][i] = qs[s]
		}
	}
	answers := make([][][]byte, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := range c.servers {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			answers[s], errs[s] = c.servers[s].AnswerBatch(perServer[s])
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pir: server %d: %w", s, err)
		}
	}
	out := make([][]byte, len(indices))
	bs := c.servers[0].BlockSize()
	for i := range indices {
		b := make([]byte, bs)
		for s := 0; s < k; s++ {
			for j := range b {
				b[j] ^= answers[s][i][j]
			}
		}
		out[i] = b
	}
	return out, nil
}

// CommunicationBits returns the total client↔server communication of one
// retrieval in bits: k subset vectors up, k blocks down.
func (c *ITClient) CommunicationBits() int {
	n := c.servers[0].Blocks()
	return len(c.servers) * (((n + 7) / 8 * 8) + c.servers[0].BlockSize()*8)
}
