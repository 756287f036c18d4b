package pir

import (
	"math/big"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/par"
)

// The full-scale perf gate lives in cmd/bench (64 MiB database,
// BENCH_gates.json); these small benchmarks exist so `make check`'s
// -benchtime 1x pass keeps the kernels compiling and running on every
// change.

func benchDB(b *testing.B, n, size int) ([][]byte, *ITServer, []byte) {
	b.Helper()
	blocks := testBlocks(n, size, 97)
	srv, err := NewITServer(blocks)
	if err != nil {
		b.Fatal(err)
	}
	subset := randomSubset(n, dataset.NewRand(101))
	return blocks, srv, subset
}

// BenchmarkITAnswerWord times the word-packed parallel XOR kernel.
func BenchmarkITAnswerWord(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(benchName(w), func(b *testing.B) {
			defer par.SetWorkers(par.SetWorkers(w))
			_, srv, subset := benchDB(b, 2048, 256)
			b.SetBytes(2048 * 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Answer(subset); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	return "workers=" + string(rune('0'+workers))
}

// BenchmarkITAnswerBytewise times the seed's byte-at-a-time reference
// kernel on the same workload, the baseline the word kernel is checked
// and timed against in cmd/bench.
func BenchmarkITAnswerBytewise(b *testing.B) {
	blocks, _, subset := benchDB(b, 2048, 256)
	b.SetBytes(2048 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bytewiseAnswer(blocks, subset)
	}
}

// BenchmarkCPIRAnswer times the per-row parallel modular-product kernel.
func BenchmarkCPIRAnswer(b *testing.B) {
	rng := dataset.NewRand(103)
	bits := make([]bool, 1<<12)
	for i := range bits {
		bits[i] = rng.Uint64()&1 == 1
	}
	srv, err := NewCPIRServer(bits)
	if err != nil {
		b.Fatal(err)
	}
	_, cols := srv.Shape()
	n := new(big.Int).Lsh(big.NewInt(1), 512)
	n.Sub(n, big.NewInt(569)) // fixed odd modulus
	query := make([]*big.Int, cols)
	for c := range query {
		v := make([]byte, 64)
		for j := range v {
			v[j] = byte(rng.Uint64())
		}
		query[c] = new(big.Int).Mod(new(big.Int).SetBytes(v), n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Answer(query, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeStatsBatch times the end-to-end Section 3 COUNT/AVG
// scenario on the batched concurrent client.
func BenchmarkRangeStatsBatch(b *testing.B) {
	d := dataset.Dataset2()
	x, y := trialGrid()
	db, err := BuildStatDB(d, "height", "weight", "blood_pressure", x, y, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.RangeStats(150, 190, 60, 115, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
