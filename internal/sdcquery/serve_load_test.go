package sdcquery

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/obs"
)

// answerBits collapses an Answer to its released bits for byte-identity
// comparison.
func answerBits(a Answer) [3]uint64 {
	return [3]uint64{math.Float64bits(a.Value), math.Float64bits(a.Lo), math.Float64bits(a.Hi)}
}

// loadWorkload is a mixed query workload with heavy repetition (every query
// shape appears many times), exercising both the cache-hit and cache-miss
// paths.
func loadWorkload() []Query {
	var qs []Query
	for _, v := range []float64{70, 80, 95, 108} {
		qs = append(qs,
			Query{Agg: Count, Where: Predicate{{Col: "weight", Op: Gt, V: v - 10}}},
			Query{Agg: Sum, Attr: "weight", Where: Predicate{{Col: "height", Op: Lt, V: v + 90}}},
			// weight ≤ 70 already matches two records, so no AVG is empty.
			Query{Agg: Avg, Attr: "blood_pressure", Where: Predicate{{Col: "weight", Op: Le, V: v}}},
		)
	}
	work := make([]Query, 0, len(qs)*24)
	for rep := 0; rep < 24; rep++ {
		work = append(work, qs...)
	}
	return work
}

// TestServerHammerByteIdenticalToSerial is the tentpole's correctness gate:
// for every protection whose answers are a pure function of (principal,
// query), 64 goroutines hammering the restructured lock-free read path must
// release bit-identical answers to a fresh server answering the same
// workload serially. Runs under -race in make check.
func TestServerHammerByteIdenticalToSerial(t *testing.T) {
	work := loadWorkload()
	for _, cfg := range []Config{
		{Protection: NoProtection},
		{Protection: SizeRestriction, MinSetSize: 2},
		{Protection: Perturbation, Seed: 5},
		{Protection: Camouflage, Seed: 5},
		{Protection: RandomSample, Seed: 5},
		{Protection: DifferentialPrivacy, Seed: 5, Epsilon: 0.01, EpsilonBudget: 1000},
	} {
		t.Run(cfg.Protection.String(), func(t *testing.T) {
			serial, err := NewServer(dataset.Dataset2(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string][3]uint64)
			for _, q := range work {
				a, err := serial.AskAs("alice", q)
				if err != nil {
					t.Fatal(err)
				}
				if prev, seen := want[q.String()]; seen && prev != answerBits(a) {
					t.Fatalf("serial path answered %q two different ways", q)
				}
				want[q.String()] = answerBits(a)
			}

			hammered, err := NewServer(dataset.Dataset2(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 64
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(work); i += goroutines {
						q := work[i]
						a, err := hammered.AskAs("alice", q)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d: %v", g, err)
							return
						}
						if answerBits(a) != want[q.String()] {
							errs <- fmt.Errorf("concurrent answer for %q diverged from serial", q)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if cfg.Protection == DifferentialPrivacy {
				// 12 distinct (principal, query) shapes at ε=0.01 each: the
				// hammer must have debited exactly once per shape, no
				// matter how many goroutines raced on the first release.
				rem, _ := hammered.BudgetRemaining("alice")
				if want := 1000 - 0.01*12; math.Abs(rem-want) > 1e-9 {
					t.Errorf("remaining ε = %g, want %g (exactly one debit per distinct query)", rem, want)
				}
			}
		})
	}
}

// TestServerSoakBoundedMemory pushes a large stream of DISTINCT queries
// through a server and checks that every piece of per-query state — query
// log, answer cache, overlap history — stays within its configured bound.
func TestServerSoakBoundedMemory(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	srv, err := NewServer(dataset.Dataset2(), Config{
		Protection: Perturbation, Seed: 1, QueryLogCap: 512, AnswerCacheCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		q := Query{Agg: Count, Where: Predicate{{Col: "weight", Op: Gt, V: float64(i)}}}
		if _, err := srv.AskAs("alice", q); err != nil {
			t.Fatal(err)
		}
	}
	retained, dropped, capacity := srv.LogStats()
	if capacity != 512 || retained != 512 {
		t.Errorf("LogStats retained/cap = %d/%d, want 512/512", retained, capacity)
	}
	if dropped != int64(n-512) {
		t.Errorf("LogStats dropped = %d, want %d", dropped, n-512)
	}
	if got := len(srv.Log()); got != 512 {
		t.Errorf("Log() returned %d entries, want the 512-newest window", got)
	}
	if _, _, entries, ok := srv.CacheStats(); !ok || entries > 256 {
		t.Errorf("cache entries = %d (ok %v), want ≤ 256", entries, ok)
	}

	// Overlap history: deny-when-full keeps the controller's memory at the
	// cap, sacrificing availability, never the overlap bound.
	ov, err := NewServer(dataset.Dataset2(), Config{
		Protection: OverlapRestriction, MinSetSize: 1, MaxOverlap: 0, MaxTrackedQueries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	denials := 0
	for i := 0; i < 50; i++ {
		// Singleton disjoint query sets — admissible until the history cap.
		a, err := ov.AskAs("", Query{Agg: Count, Where: Predicate{{Col: "weight", Op: Gt, V: float64(200 + i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if a.Denied {
			denials++
		}
	}
	if tracked, capacity := ov.OverlapStats(); tracked > 3 || capacity != 3 {
		t.Errorf("OverlapStats = (%d, %d), want tracked ≤ 3, cap 3", tracked, capacity)
	}
}

// TestUnboundedLogOptIn pins the evaluator's escape hatch: with a
// negative QueryLogCap the server retains every query.
func TestUnboundedLogOptIn(t *testing.T) {
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: NoProtection, QueryLogCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := srv.Ask(Query{Agg: Count, Where: Predicate{{Col: "weight", Op: Gt, V: float64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(srv.Log()); got != 100 {
		t.Errorf("unbounded log retained %d of 100", got)
	}
	retained, dropped, capacity := srv.LogStats()
	if retained != 100 || dropped != 0 || capacity != 0 {
		t.Errorf("LogStats = (%d, %d, %d), want (100, 0, 0)", retained, dropped, capacity)
	}
}

// TestSizeRestrictionImpossibleConfig pins the construction-time error: a
// size-restricted server over fewer than 2·MinSetSize rows can never answer
// anything.
func TestSizeRestrictionImpossibleConfig(t *testing.T) {
	// Dataset2 has 9 rows: minsize 5 ⇒ every query set size is outside
	// [5, 4] — impossible by construction.
	_, err := NewServer(dataset.Dataset2(), Config{Protection: SizeRestriction, MinSetSize: 5})
	if err == nil {
		t.Fatal("accepted a size restriction that denies every query")
	}
	if !strings.Contains(err.Error(), "minsize") {
		t.Errorf("error %q does not explain the minsize conflict", err)
	}
	// 2·MinSetSize ≤ Rows() leaves admissible sizes.
	if _, err := NewServer(dataset.Dataset2(), Config{Protection: SizeRestriction, MinSetSize: 4}); err != nil {
		t.Errorf("rejected an admissible config: %v", err)
	}
	// Other protections are not affected by the check.
	if _, err := NewServer(dataset.Dataset2(), Config{Protection: NoProtection, MinSetSize: 5}); err != nil {
		t.Errorf("minsize check leaked into NoProtection: %v", err)
	}
}

// TestHTTPAdmissionControl429 exercises the token-bucket front door:
// past-burst requests are shed with 429 + Retry-After, distinct clients are
// isolated, and the obs counters record both decisions.
func TestHTTPAdmissionControl429(t *testing.T) {
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{
		Registry: reg, RateLimit: 0.1, RateBurst: 2,
	}))
	defer ts.Close()

	post := func(principal string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/sql", strings.NewReader("SELECT COUNT(*) WHERE height >= 170"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(PrincipalHeader, principal)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// The burst admits two requests; the third is throttled.
	for i := 0; i < 2; i++ {
		if resp := post("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("past-burst status = %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	// Another client is unaffected: per-client buckets, not a global one.
	if resp := post("bob"); resp.StatusCode != http.StatusOK {
		t.Errorf("bob throttled by alice's bucket: %d", resp.StatusCode)
	}

	var metrics strings.Builder
	if _, err := reg.WriteTo(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`sdcquery_admission_total{decision="admitted"} 3`,
		`sdcquery_admission_total{decision="throttled"} 1`,
		`sdcquery_admission_clients 2`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics.String())
		}
	}
}

// TestHTTPOversizedBody413 pins the MaxBytesReader bugfix: an oversized
// body is a clean 413 with its own outcome label, not a JSON
// unexpected-EOF 400.
func TestHTTPOversizedBody413(t *testing.T) {
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{Registry: reg}))
	defer ts.Close()

	// Valid JSON syntax up to the cap, so /query's decoder hits the byte
	// limit (a MaxBytesError), not a syntax error.
	big := `{"agg":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/query", "/sql"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status = %d, want 413", path, resp.StatusCode)
		}
	}
	var metrics strings.Builder
	if _, err := reg.WriteTo(&metrics); err != nil {
		t.Fatal(err)
	}
	if want := `sdcquery_answers_total{outcome="too-large"} 2`; !strings.Contains(metrics.String(), want) {
		t.Errorf("metrics missing %q in:\n%s", want, metrics.String())
	}
}
