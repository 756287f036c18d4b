package sdcquery

import (
	"sync"
	"testing"

	"privacy3d/internal/dataset"
)

// The HTTP front end serves requests concurrently; the Server must be safe
// under parallel Ask/Log traffic (run with -race), and the stateful
// protections must commit one serial history whatever the interleaving.
// Disclosure and pairwise overlap are monotone in the answered set, so if
// the concurrent history is a valid serial one, replaying every answered
// query serially into a fresh server answers each of them again, with the
// same value.
func TestServerConcurrentAsk(t *testing.T) {
	aggs := []Agg{Count, Sum, Avg}
	for _, tc := range []struct {
		name string
		cfg  Config
		// query returns the i'th query of goroutine w.
		query func(w, i int) Query
	}{
		{"auditing", Config{Protection: Auditing}, func(w, i int) Query {
			return Query{Agg: aggs[(w+i)%3], Attr: "blood_pressure", Where: Predicate{
				{Col: "height", Op: Ge, V: float64(150 + (w*25+i)%40)},
			}}
		}},
		{"overlap", Config{Protection: OverlapRestriction, MaxOverlap: 2}, func(w, i int) Query {
			lo := float64(140 + (w*7+i*3)%60)
			return Query{Agg: aggs[(w+i)%3], Attr: "blood_pressure", Where: Predicate{
				{Col: "height", Op: Ge, V: lo}, {Col: "height", Op: Lt, V: lo + 4},
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.SyntheticTrial(dataset.TrialConfig{N: 200, Seed: 1})
			srv, err := NewServer(d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				answered []Query
				values   []float64
				denied   int
			)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						q := tc.query(w, i)
						a, err := srv.Ask(q)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						if a.Denied {
							denied++
						} else {
							answered = append(answered, q)
							values = append(values, a.Value)
						}
						mu.Unlock()
						_ = srv.Log()
					}
				}(w)
			}
			wg.Wait()
			if got := len(srv.Log()); got != 200 {
				t.Errorf("log has %d entries, want 200", got)
			}
			if len(answered) == 0 || denied == 0 {
				t.Fatalf("workload answered %d and denied %d queries; the check needs both", len(answered), denied)
			}
			replay, err := NewServer(d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range answered {
				a, err := replay.Ask(q)
				if err != nil || a.Denied || a.Value != values[i] {
					t.Errorf("serial replay of concurrently answered %q = %+v, %v; want value %g", q, a, err, values[i])
				}
			}
		})
	}
}
