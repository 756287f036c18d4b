package risk

// Benchmarks of the engine's hot paths across worker counts. make check
// runs these once (-benchtime 1x) so the benchmark code cannot bit-rot;
// make bench / cmd/bench is the large-scale gate.

import (
	"fmt"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/noise"
	"privacy3d/internal/par"
)

func benchPair(b *testing.B, n int) (*dataset.Dataset, *dataset.Dataset, []int) {
	b.Helper()
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: n, Seed: 11, ExtraQI: 2})
	m, err := noise.AddUncorrelated(d, d.QuasiIdentifiers(), 0.2, dataset.NewRand(13))
	if err != nil {
		b.Fatal(err)
	}
	return d, m, d.QuasiIdentifiers()
}

func BenchmarkDistanceLinkage(b *testing.B) {
	d, m, cols := benchPair(b, 2000)
	prev := par.SetWorkers(0)
	defer par.SetWorkers(prev)
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			var rate float64
			for i := 0; i < b.N; i++ {
				rep, err := DistanceLinkage(d, m, cols)
				if err != nil {
					b.Fatal(err)
				}
				rate = rep.Rate
			}
			b.ReportMetric(rate, "linkage-rate")
		})
	}
}

func BenchmarkIntervalDisclosure(b *testing.B) {
	d, m, cols := benchPair(b, 5000)
	prev := par.SetWorkers(0)
	defer par.SetWorkers(prev)
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			par.SetWorkers(w)
			for i := 0; i < b.N; i++ {
				if _, err := IntervalDisclosure(d, m, cols, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
