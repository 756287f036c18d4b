package pir

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand/v2"
	"sync"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/par"
)

// bytewiseAnswer is the seed's byte-at-a-time reference kernel, kept here
// as the ground truth the word-packed parallel kernel must match
// bit-for-bit (cmd/bench times the same loop as its baseline).
func bytewiseAnswer(blocks [][]byte, subset []byte) []byte {
	out := make([]byte, len(blocks[0]))
	for i, b := range blocks {
		if subset[i>>3]>>(i&7)&1 == 1 {
			for j := range out {
				out[j] ^= b[j]
			}
		}
	}
	return out
}

// randomSubset draws a subset vector over n blocks with tail bits masked.
func randomSubset(n int, rng *rand.Rand) []byte {
	v := make([]byte, (n+7)/8)
	for j := range v {
		v[j] = byte(rng.Uint64())
	}
	if n%8 != 0 {
		v[len(v)-1] &= byte(1<<(n%8)) - 1
	}
	return v
}

// TestITAnswerMatchesBytewiseReference is the property test of the word
// kernel: on block sizes and block counts that are NOT multiples of 8
// (partial tail words, partial tail subset bytes), the packed kernel must
// match the byte-wise reference bit-for-bit at every worker count.
func TestITAnswerMatchesBytewiseReference(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(0))
	shapes := []struct{ n, size int }{
		{1, 1}, {7, 3}, {13, 13}, {37, 5}, {64, 8}, {100, 17},
		{513, 9}, {1025, 31}, // > one 512-index chunk, odd sizes
	}
	for _, sh := range shapes {
		blocks := testBlocks(sh.n, sh.size, uint64(sh.n*1000+sh.size))
		srv, err := NewITServer(blocks)
		if err != nil {
			t.Fatal(err)
		}
		rng := dataset.NewRand(uint64(sh.n) ^ 0xabc)
		for trial := 0; trial < 8; trial++ {
			subset := randomSubset(sh.n, rng)
			want := bytewiseAnswer(blocks, subset)
			for _, w := range []int{1, 2, 8} {
				par.SetWorkers(w)
				got, err := srv.Answer(subset)
				if err != nil {
					t.Fatalf("n=%d size=%d workers=%d: %v", sh.n, sh.size, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d size=%d workers=%d trial=%d: word kernel differs from byte-wise reference",
						sh.n, sh.size, w, trial)
				}
			}
		}
	}
}

// TestITAnswerBatchMatchesAnswer is the identity gate of the one-pass
// batched kernel: on odd shapes (partial tail words and subset bytes),
// AnswerBatch must return, per query, exactly the bytes Answer returns —
// at every worker count — while counting each query individually.
func TestITAnswerBatchMatchesAnswer(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(0))
	shapes := []struct{ n, size int }{
		{1, 1}, {13, 13}, {100, 17}, {1025, 31},
	}
	for _, sh := range shapes {
		blocks := testBlocks(sh.n, sh.size, uint64(sh.n*7777+sh.size))
		srv, err := NewITServer(blocks)
		if err != nil {
			t.Fatal(err)
		}
		rng := dataset.NewRand(uint64(sh.n) ^ 0xbadc)
		subsets := make([][]byte, 9)
		for i := range subsets {
			subsets[i] = randomSubset(sh.n, rng)
		}
		subsets[3] = make([]byte, (sh.n+7)/8) // include an empty subset
		want := make([][]byte, len(subsets))
		for i, sub := range subsets {
			if want[i], err = srv.Answer(sub); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range []int{1, 2, 8} {
			par.SetWorkers(w)
			before := srv.Answers()
			got, err := srv.AnswerBatch(subsets)
			if err != nil {
				t.Fatalf("n=%d size=%d workers=%d: %v", sh.n, sh.size, w, err)
			}
			for i := range subsets {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("n=%d size=%d workers=%d: batch answer %d differs from Answer", sh.n, sh.size, w, i)
				}
			}
			if srv.Answers() != before+int64(len(subsets)) {
				t.Errorf("batch counted %d answers, want %d", srv.Answers()-before, len(subsets))
			}
		}
	}
	// A malformed subset anywhere fails the whole batch before logging.
	srv, err := NewITServer(testBlocks(37, 4, 99))
	if err != nil {
		t.Fatal(err)
	}
	retainedBefore, _, _ := srv.QueryLogStats()
	bad := make([]byte, 5)
	bad[4] |= 1 << 6 // bit 38 of a 37-block database
	if _, err := srv.AnswerBatch([][]byte{make([]byte, 5), bad}); err == nil {
		t.Error("batch accepted a subset with tail bits set")
	}
	if retained, _, _ := srv.QueryLogStats(); retained != retainedBefore {
		t.Error("failed batch left queries in the log")
	}
	// The empty batch is a no-op.
	if out, err := srv.AnswerBatch(nil); err != nil || out != nil {
		t.Errorf("empty batch = %v, %v", out, err)
	}
}

// TestITAnswerRejectsTailBits pins the malformed-query contract: a subset
// vector with bits set beyond the block count must be rejected, not
// silently answered as if the tail were clear.
func TestITAnswerRejectsTailBits(t *testing.T) {
	srv, err := NewITServer(testBlocks(37, 4, 21))
	if err != nil {
		t.Fatal(err)
	}
	subset := make([]byte, 5)
	subset[0] = 1
	if _, err := srv.Answer(subset); err != nil {
		t.Fatalf("clean subset rejected: %v", err)
	}
	subset[4] |= 1 << 6 // bit 38 of a 37-block database
	if _, err := srv.Answer(subset); err == nil {
		t.Error("accepted subset with bits set beyond the block count")
	}
	// A full-width database has no tail bits to reject.
	srv8, err := NewITServer(testBlocks(8, 4, 22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv8.Answer([]byte{0xff}); err != nil {
		t.Errorf("full final byte rejected on 8-block database: %v", err)
	}
}

// TestITServerQueryLogBounded pins the ring-buffer retention: the log
// keeps the newest DefaultQueryLogCap window and accounts for every drop.
func TestITServerQueryLogBounded(t *testing.T) {
	srv, err := NewITServer(testBlocks(16, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetQueryLogCap(10)
	total := 25
	for i := 0; i < total; i++ {
		subset := []byte{byte(i), 0}
		if _, err := srv.Answer(subset); err != nil {
			t.Fatal(err)
		}
	}
	retained, dropped, capacity := srv.QueryLogStats()
	if capacity != 10 || retained != 10 || dropped != int64(total-10) {
		t.Errorf("QueryLogStats = (%d, %d, %d), want (10, 15, 10)", retained, dropped, capacity)
	}
	log := srv.QueryLog()
	if len(log) != 10 {
		t.Fatalf("QueryLog has %d entries, want 10", len(log))
	}
	// Newest window, oldest first.
	for i, v := range log {
		if v[0] != byte(total-10+i) {
			t.Fatalf("log[%d][0] = %d, want %d (newest window)", i, v[0], total-10+i)
		}
	}
	if srv.Answers() != int64(total) {
		t.Errorf("Answers = %d, want %d", srv.Answers(), total)
	}
}

// TestITServerParallelHammer drives Answer and QueryLog from many
// goroutines with a multi-worker kernel underneath — the -race test of the
// lock-free word kernel plus the ring-buffered log.
func TestITServerParallelHammer(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	blocks := testBlocks(700, 24, 29)
	srv, err := NewITServer(blocks)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetQueryLogCap(64) // force drops under load
	const goroutines, iters = 8, 25
	want := make([][]byte, goroutines)
	subsets := make([][]byte, goroutines)
	rng := dataset.NewRand(31)
	for g := range subsets {
		subsets[g] = randomSubset(700, rng)
		want[g] = bytewiseAnswer(blocks, subsets[g])
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := srv.Answer(subsets[g])
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(got, want[g]) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: wrong answer", g, i)
					return
				}
				_ = srv.QueryLog()
				_, _, _ = srv.QueryLogStats()
				_ = srv.WordsXORed()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	retained, dropped, _ := srv.QueryLogStats()
	if int64(retained)+dropped != goroutines*iters {
		t.Errorf("retained %d + dropped %d != %d answers", retained, dropped, goroutines*iters)
	}
	if srv.WordsXORed() == 0 {
		t.Error("WordsXORed stayed 0 across answering load")
	}
}

// TestRetrieveBatchMatchesSequential pins the batched client: the batch
// must return exactly the requested blocks, identically at every worker
// count, and consume the same per-index randomness as sequential Retrieve.
func TestRetrieveBatchMatchesSequential(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(0))
	blocks := testBlocks(90, 11, 41)
	indices := []int{0, 89, 17, 17, 42, 3}
	var want [][]byte
	{
		s1, _ := NewITServer(blocks)
		s2, _ := NewITServer(blocks)
		client, err := NewITClient([]*ITServer{s1, s2}, 77)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range indices {
			b, err := client.Retrieve(idx)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
	}
	for _, w := range []int{1, 2, 8} {
		par.SetWorkers(w)
		s1, _ := NewITServer(blocks)
		s2, _ := NewITServer(blocks)
		client, err := NewITClient([]*ITServer{s1, s2}, 77)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.RetrieveBatch(indices)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range indices {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d: batch result %d differs from sequential Retrieve", w, i)
			}
			if !bytes.Equal(got[i], blocks[indices[i]]) {
				t.Fatalf("workers=%d: batch result %d is not block %d", w, i, indices[i])
			}
		}
		if len(s1.QueryLog()) != len(indices) {
			t.Errorf("workers=%d: server 0 logged %d queries, want %d", w, len(s1.QueryLog()), len(indices))
		}
	}
	// Out-of-range indices are rejected before any query is sent.
	s1, _ := NewITServer(blocks)
	s2, _ := NewITServer(blocks)
	client, _ := NewITClient([]*ITServer{s1, s2}, 5)
	if _, err := client.RetrieveBatch([]int{0, 90}); err == nil {
		t.Error("accepted out-of-range batch index")
	}
	if len(s1.QueryLog()) != 0 {
		t.Error("rejected batch still sent queries")
	}
}

// TestCPIRAnswerDeterministicAcrossWorkers pins the per-row parallel CPIR
// kernel: identical products at every worker count, and a bounded log.
func TestCPIRAnswerDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(0))
	rng := dataset.NewRand(53)
	bits := make([]bool, 700) // 27×27 near-square, partial last row
	for i := range bits {
		bits[i] = rng.Uint64()&1 == 1
	}
	srv, err := NewCPIRServer(bits)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := srv.Shape()
	n := big.NewInt(0).SetUint64(2*3*5*7*11*13*17*19*23 + 2) // any odd-ish modulus works for the kernel
	query := make([]*big.Int, cols)
	for c := range query {
		query[c] = big.NewInt(int64(2 + rng.Uint64()%1000))
	}
	var want []*big.Int
	for _, w := range []int{1, 2, 8} {
		par.SetWorkers(w)
		got, err := srv.Answer(query, n)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if w == 1 {
			want = got
			continue
		}
		for r := range got {
			if got[r].Cmp(want[r]) != 0 {
				t.Fatalf("workers=%d: row %d product differs from sequential", w, r)
			}
		}
	}
	retained, dropped, capacity := srv.QueryLogStats()
	if retained != 3 || dropped != 0 || capacity != DefaultQueryLogCap {
		t.Errorf("QueryLogStats = (%d, %d, %d), want (3, 0, %d)", retained, dropped, capacity, DefaultQueryLogCap)
	}
}

// TestKeywordLookupMany pins the batched keyword path: present keys come
// back correct, missing keys resolve locally without sending queries.
func TestKeywordLookupMany(t *testing.T) {
	entries := map[string][]byte{
		"hypertension": []byte("ICD-10 I10"),
		"aids":         []byte("ICD-10 B24"),
		"flu":          []byte("ICD-10 J11"),
	}
	db, err := NewKeywordDB(entries, 2)
	if err != nil {
		t.Fatal(err)
	}
	values, found, err := db.LookupMany([]string{"flu", "cancer", "aids"}, 61)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || found[1] || !found[2] {
		t.Fatalf("found = %v, want [true false true]", found)
	}
	if string(values[0]) != "ICD-10 J11" || string(values[2]) != "ICD-10 B24" {
		t.Errorf("values = %q", values)
	}
	if got := len(db.Servers()[0].QueryLog()); got != 2 {
		t.Errorf("server logged %d queries, want 2 (missing key resolved locally)", got)
	}
}
