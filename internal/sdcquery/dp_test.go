package sdcquery

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/dp"
	"privacy3d/internal/obs"
)

func dpServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Protection = DifferentialPrivacy
	srv, err := NewServer(dataset.Dataset2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDPPerturbsAndDebits(t *testing.T) {
	srv := dpServer(t, Config{Seed: 9, Epsilon: 0.5, EpsilonBudget: 2})
	q := Query{Agg: Avg, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Ge, V: 170}}}
	truth, err := q.Evaluate(servedDataset(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.AskAs("alice", q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Budgeted || a.Epsilon != 0.5 || a.EpsilonRemaining != 1.5 {
		t.Errorf("budget fields = %+v", a)
	}
	if a.Value == truth {
		t.Error("DP answer equals the true value; no noise was added")
	}
	// COUNT answers are perturbed too.
	c, err := srv.AskAs("alice", Query{Agg: Count, Where: Predicate{{Col: "height", Op: Ge, V: 170}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Value == math.Trunc(c.Value) || c.EpsilonRemaining != 1.0 {
		t.Errorf("count answer = %+v (want non-integral perturbed value, remaining 1)", c)
	}
	if rem, ok := srv.BudgetRemaining("alice"); !ok || rem != 1.0 {
		t.Errorf("BudgetRemaining = %g, %v", rem, ok)
	}
	// Anonymous queries cannot be budget-accounted.
	if _, err := srv.Ask(q); !errors.Is(err, dp.ErrNoPrincipal) {
		t.Errorf("anonymous Ask error = %v", err)
	}
	// SUM over a categorical attribute fails cleanly.
	if _, err := srv.AskAs("alice", Query{Agg: Sum, Attr: "aids", Where: nil}); err == nil {
		t.Error("accepted SUM over categorical attribute")
	}
}

func TestDPRepeatAnswersIdenticallyAndBudgetExhausts(t *testing.T) {
	srv := dpServer(t, Config{Seed: 3, Epsilon: 1, EpsilonBudget: 3})
	q := Query{Agg: Count, Where: Predicate{{Col: "weight", Op: Gt, V: 90}}}
	var values []float64
	for i := 0; i < 3; i++ {
		a, err := srv.AskAs("alice", q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		values = append(values, a.Value)
		// A repeat is a re-release of a value alice already holds: ε is
		// debited exactly once, on the first release.
		if a.EpsilonRemaining != 2 {
			t.Errorf("repeat %d: remaining ε = %g, want 2 (repeats must not debit)", i, a.EpsilonRemaining)
		}
	}
	// The seeding contract: a repeated (principal, query) re-releases the
	// identical perturbed value, so averaging repetitions gains nothing.
	if values[0] != values[1] || values[1] != values[2] {
		t.Errorf("repeated query drew fresh noise: %v", values)
	}
	// Distinct queries each debit; the fourth distinct query overdraws the
	// ε=3 budget.
	for i, v := range []float64{80, 70} {
		if _, err := srv.AskAs("alice", Query{Agg: Count, Where: Predicate{{Col: "weight", Op: Gt, V: v}}}); err != nil {
			t.Fatalf("distinct query %d: %v", i, err)
		}
	}
	_, err := srv.AskAs("alice", Query{Agg: Count, Where: Predicate{{Col: "weight", Op: Gt, V: 60}}})
	if !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("post-exhaustion error = %v", err)
	}
	var be *dp.BudgetError
	if !errors.As(err, &be) || be.Remaining != 0 {
		t.Errorf("budget error detail = %v", err)
	}
	// The exhausted principal can still re-fetch answers it already holds.
	a, err := srv.AskAs("alice", q)
	if err != nil {
		t.Fatalf("exhausted re-release: %v", err)
	}
	if a.Value != values[0] || a.EpsilonRemaining != 0 {
		t.Errorf("exhausted re-release = %+v, want value %g and remaining 0", a, values[0])
	}
	// A different principal is unaffected, and principals are listed.
	if _, err := srv.AskAs("bob", q); err != nil {
		t.Errorf("bob blocked by alice's exhaustion: %v", err)
	}
	if got := srv.BudgetPrincipals(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Errorf("BudgetPrincipals = %v", got)
	}
}

// TestDPCacheHitAccounting pins the cache-side of the accounting rule: the
// first release of a (principal, query) is a cache miss that debits ε; every
// repeat is a cache hit that debits nothing and reports the CURRENT
// remaining budget, not a stale snapshot.
func TestDPCacheHitAccounting(t *testing.T) {
	srv := dpServer(t, Config{Seed: 17, Epsilon: 1, EpsilonBudget: 10})
	q := Query{Agg: Sum, Attr: "weight", Where: Predicate{{Col: "height", Op: Lt, V: 180}}}
	first, err := srv.AskAs("alice", q)
	if err != nil {
		t.Fatal(err)
	}
	if first.EpsilonRemaining != 9 {
		t.Fatalf("first release remaining = %g, want 9", first.EpsilonRemaining)
	}
	// Spend some budget on a different query, then repeat the first.
	if _, err := srv.AskAs("alice", Query{Agg: Count, Where: nil}); err != nil {
		t.Fatal(err)
	}
	repeat, err := srv.AskAs("alice", q)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Value != first.Value || !repeat.Budgeted || repeat.Epsilon != 1 {
		t.Errorf("repeat = %+v, want re-release of %+v", repeat, first)
	}
	if repeat.EpsilonRemaining != 8 {
		t.Errorf("repeat remaining = %g, want current ledger state 8 (charged once, refreshed on hit)", repeat.EpsilonRemaining)
	}
	if rem, _ := srv.BudgetRemaining("alice"); rem != 8 {
		t.Errorf("ledger remaining = %g after repeat, want 8 (repeat must not debit)", rem)
	}
	hits, misses, _, ok := srv.CacheStats()
	if !ok || hits != 1 || misses != 2 {
		t.Errorf("CacheStats = hits %d misses %d ok %v, want 1/2/true", hits, misses, ok)
	}
	// Per-principal isolation: bob asking alice's query is a miss and a
	// fresh release with bob's own noise key.
	bob, err := srv.AskAs("bob", q)
	if err != nil {
		t.Fatal(err)
	}
	if bob.Value == first.Value {
		t.Error("bob received alice's noise draw")
	}
	if rem, _ := srv.BudgetRemaining("bob"); rem != 9 {
		t.Errorf("bob remaining = %g, want 9", rem)
	}
}

func TestDPGaussianMechanism(t *testing.T) {
	lap := dpServer(t, Config{Seed: 5, Epsilon: 1})
	gau := dpServer(t, Config{Seed: 5, Epsilon: 1, Delta: 1e-6})
	q := Query{Agg: Sum, Attr: "weight", Where: nil}
	la, err := lap.AskAs("alice", q)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := gau.AskAs("alice", q)
	if err != nil {
		t.Fatal(err)
	}
	if la.Value == ga.Value {
		t.Error("laplace and gaussian mechanisms released identical values")
	}
	if _, err := NewServer(dataset.Dataset2(), Config{Protection: DifferentialPrivacy, Delta: 1.5}); err == nil {
		t.Error("accepted delta ≥ 1")
	}
}

// dpWorkload is a fixed mixed workload over several principals, used by
// the determinism test. Returned as (principal, query) pairs.
func dpWorkload() []struct {
	principal string
	q         Query
} {
	var work []struct {
		principal string
		q         Query
	}
	for _, p := range []string{"alice", "bob", "carol"} {
		for _, q := range []Query{
			{Agg: Count, Where: Predicate{{Col: "height", Op: Lt, V: 176}}},
			{Agg: Sum, Attr: "weight", Where: Predicate{{Col: "height", Op: Ge, V: 170}}},
			{Agg: Avg, Attr: "blood_pressure", Where: Predicate{{Col: "weight", Op: Gt, V: 80}}},
			{Agg: Count, Where: nil},
		} {
			work = append(work, struct {
				principal string
				q         Query
			}{p, q})
		}
	}
	return work
}

// TestDPDeterministicAcrossWorkers is the reproducibility gate the issue
// requires: the same seed must yield byte-identical perturbed answers no
// matter how many goroutines submit the workload concurrently. Runs under
// -race in make check.
func TestDPDeterministicAcrossWorkers(t *testing.T) {
	work := dpWorkload()
	run := func(workers int) map[string]uint64 {
		srv := dpServer(t, Config{Seed: 11, Epsilon: 0.25, EpsilonBudget: 100})
		out := make(map[string]uint64, len(work))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(work); i += workers {
					item := work[i]
					a, err := srv.AskAs(item.principal, item.q)
					if err != nil {
						t.Errorf("workers=%d item %d: %v", workers, i, err)
						return
					}
					mu.Lock()
					out[item.principal+"\x00"+item.q.String()] = math.Float64bits(a.Value)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return out
	}
	want := run(1)
	if len(want) != len(work) {
		t.Fatalf("reference run answered %d of %d", len(want), len(work))
	}
	for _, workers := range []int{1, 2, 8} {
		got := run(workers)
		for k, bits := range want {
			if got[k] != bits {
				t.Errorf("workers=%d: answer for %q differs: %x vs %x", workers, k, got[k], bits)
			}
		}
	}
	// A different seed yields a different answer stream.
	other := dpServer(t, Config{Seed: 12, Epsilon: 0.25, EpsilonBudget: 100})
	same := 0
	for _, item := range work {
		a, err := other.AskAs(item.principal, item.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Value) == want[item.principal+"\x00"+item.q.String()] {
			same++
		}
	}
	if same == len(work) {
		t.Error("seed 12 reproduced seed 11's answers")
	}
}

func TestDPHTTPBudgetFlow(t *testing.T) {
	srv := dpServer(t, Config{Seed: 21, Epsilon: 1, EpsilonBudget: 2})
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{Registry: reg}))
	defer ts.Close()

	post := func(principal, body string) (*http.Response, AnswerJSON, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/sql", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if principal != "" {
			req.Header.Set(PrincipalHeader, principal)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var a AnswerJSON
		var e errorJSON
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
				t.Fatal(err)
			}
			return resp, a, ""
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		return resp, a, e.Error
	}

	const q = "SELECT COUNT(*) WHERE height >= 170"
	// Missing principal → 400 naming the header.
	resp, _, msg := post("", q)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, PrincipalHeader) {
		t.Errorf("no-principal response = %d %q", resp.StatusCode, msg)
	}
	// Two queries spend the ε=2 budget; the answers carry the ε fields.
	resp, a, _ := post("alice", q)
	if resp.StatusCode != http.StatusOK || a.Epsilon == nil || *a.Epsilon != 1 ||
		a.EpsilonRemaining == nil || *a.EpsilonRemaining != 1 {
		t.Fatalf("first answer = %d %+v", resp.StatusCode, a)
	}
	if got := resp.Header.Get("X-Privacy3D-Epsilon-Remaining"); got != "1" {
		t.Errorf("remaining header = %q", got)
	}
	resp, a, _ = post("alice", "SELECT AVG(blood_pressure) WHERE height >= 170")
	if resp.StatusCode != http.StatusOK || a.EpsilonRemaining == nil || *a.EpsilonRemaining != 0 {
		t.Fatalf("second answer = %d %+v", resp.StatusCode, a)
	}
	// Repeating an already-released query is a free re-release: 200 with
	// the ε fields showing the exhausted budget but no fresh debit.
	resp, a, _ = post("alice", q)
	if resp.StatusCode != http.StatusOK || a.EpsilonRemaining == nil || *a.EpsilonRemaining != 0 {
		t.Fatalf("cached repeat = %d %+v", resp.StatusCode, a)
	}
	// A third DISTINCT query is refused with 429 and the remaining-ε hint.
	resp, _, msg = post("alice", "SELECT COUNT(*) WHERE height < 170")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted status = %d (%s)", resp.StatusCode, msg)
	}
	if got := resp.Header.Get("X-Privacy3D-Epsilon-Remaining"); got != "0" {
		t.Errorf("exhausted remaining header = %q", got)
	}
	if !strings.Contains(msg, "ε=0 remaining") {
		t.Errorf("exhausted message lacks remaining hint: %q", msg)
	}
	// bob still has budget.
	if resp, _, _ := post("bob", q); resp.StatusCode != http.StatusOK {
		t.Errorf("bob refused: %d", resp.StatusCode)
	}

	// Outcome labels classify the DP refusals distinctly, and two bounded
	// aggregates expose the ledger: principals charged and ε spent.
	var metrics strings.Builder
	if _, err := reg.WriteTo(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`sdcquery_answers_total{outcome="answered"} 4`,
		`sdcquery_answers_total{outcome="budget-exhausted"} 1`,
		`sdcquery_answers_total{outcome="no-principal"} 1`,
		`dp_principals 2`,
		`dp_epsilon_spent 3`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics.String())
		}
	}
}

func TestDPNonDPServerIgnoresPrincipal(t *testing.T) {
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.AskAs("alice", Query{Agg: Count, Where: nil})
	if err != nil || a.Budgeted {
		t.Errorf("non-DP AskAs = %+v, %v", a, err)
	}
	if _, ok := srv.BudgetRemaining("alice"); ok {
		t.Error("non-DP server claims budget accounting")
	}
	if srv.BudgetPrincipals() != nil {
		t.Error("non-DP server lists principals")
	}
}

// TestDPDeniedEmptyAvgChargesNothing pins the accounting rule: a denial
// (AVG over an empty query set) must not debit ε.
func TestDPDeniedEmptyAvgChargesNothing(t *testing.T) {
	srv := dpServer(t, Config{Seed: 2, Epsilon: 1, EpsilonBudget: 1})
	a, err := srv.AskAs("alice", Query{Agg: Avg, Attr: "blood_pressure",
		Where: Predicate{{Col: "height", Op: Gt, V: 10000}}})
	if err != nil || !a.Denied {
		t.Fatalf("empty AVG = %+v, %v", a, err)
	}
	if rem, _ := srv.BudgetRemaining("alice"); rem != 1 {
		t.Errorf("denial debited ε: remaining %g", rem)
	}
}

// Example of the error surface a CLI or SDK user sees.
func ExampleServer_AskAs_budgetExhausted() {
	srv, _ := NewServer(dataset.Dataset2(), Config{
		Protection: DifferentialPrivacy, Epsilon: 1, EpsilonBudget: 1, Seed: 1,
	})
	if _, err := srv.AskAs("alice", Query{Agg: Count, Where: nil}); err != nil {
		fmt.Println(err)
	}
	// A second DISTINCT query overdraws the ε=1 budget (repeating the first
	// would be a free cache re-release).
	_, err := srv.AskAs("alice", Query{Agg: Count, Where: Predicate{{Col: "height", Op: Ge, V: 170}}})
	fmt.Println(errors.Is(err, dp.ErrBudgetExhausted))
	// Output: true
}

// TestDPMetricsBoundedInPrincipals pins the metrics surface's size: every
// fresh principal is one more ledger entry, never one more /metrics
// series, so 500 principals scrape to as many lines as one.
func TestDPMetricsBoundedInPrincipals(t *testing.T) {
	srv := dpServer(t, Config{Seed: 3, Epsilon: 0.5, EpsilonBudget: 1})
	h := NewHandler(srv, HandlerConfig{Registry: obs.NewRegistry()})
	ask := func(principal string) {
		req := httptest.NewRequest(http.MethodPost, "/sql", strings.NewReader("SELECT COUNT(*) WHERE height >= 170"))
		req.Header.Set(PrincipalHeader, principal)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", principal, rec.Code, rec.Body)
		}
	}
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	ask("p0")
	one := strings.Count(scrape(), "\n")
	for i := 1; i < 500; i++ {
		ask(fmt.Sprintf("p%d", i))
	}
	m := scrape()
	if got := strings.Count(m, "\n"); got != one {
		t.Errorf("/metrics has %d lines after 500 principals, %d after one", got, one)
	}
	for _, want := range []string{"dp_principals 500\n", "dp_epsilon_spent 250\n"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q in:\n%s", want, m)
		}
	}
}
