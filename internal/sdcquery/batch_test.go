package sdcquery

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/par"
)

// batchTestQueries is a mixed workload: distinct shapes, exact repeats
// (cache hits), broad and narrow sets, every aggregate.
func batchTestQueries() []Query {
	qs := []Query{
		{Agg: Count, Where: Predicate{{Col: "height", Op: Ge, V: 150}}},
		{Agg: Sum, Attr: "blood_pressure", Where: Predicate{{Col: "height", Op: Ge, V: 160}, {Col: "height", Op: Lt, V: 170}}},
		{Agg: Avg, Attr: "height", Where: Predicate{{Col: "aids", Op: Eq, S: "Y"}}},
		{Agg: Count, Where: Predicate{{Col: "height", Op: Lt, V: 100}}}, // empty set
		{Agg: Count, Where: nil}, // unconstrained
		{Agg: Avg, Attr: "blood_pressure", Where: Predicate{{Col: "aids", Op: Ne, S: "Y"}}},
	}
	return append(qs, qs[0], qs[2]) // exact repeats
}

// sameAnswer compares two answers byte for byte (float fields via their
// bit patterns).
func sameAnswer(a, b Answer) bool {
	return a.Denied == b.Denied && a.Reason == b.Reason &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) &&
		a.Interval == b.Interval && a.Budgeted == b.Budgeted &&
		math.Float64bits(a.Epsilon) == math.Float64bits(b.Epsilon) &&
		math.Float64bits(a.EpsilonRemaining) == math.Float64bits(b.EpsilonRemaining)
}

// TestAskBatchMatchesAskAs pins the batch contract: for every protection,
// AskBatch against one server produces byte-identical answers to a serial
// AskAs loop against an identically configured twin — including the
// stateful protections, whose history must advance in batch order, and
// differential privacy, whose ε accounting must debit identically. The
// batch is then submitted a second time on both servers, so every
// cacheable query is a cache hit after ε has moved: the hits must still
// match the serial loop byte for byte, EpsilonRemaining included, and
// debit nothing. Every case runs at par.SetWorkers 1, 2 and 8: the batch
// sweep fans out per shard, and its answers must not depend on how many
// workers run it.
func TestAskBatchMatchesAskAs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"none", Config{Protection: NoProtection}},
		{"size", Config{Protection: SizeRestriction, MinSetSize: 3}},
		{"auditing", Config{Protection: Auditing}},
		{"perturbation", Config{Protection: Perturbation, Seed: 7}},
		{"camouflage", Config{Protection: Camouflage, Seed: 7}},
		{"overlap", Config{Protection: OverlapRestriction}},
		{"sample", Config{Protection: RandomSample, Seed: 7}},
		{"dp", Config{Protection: DifferentialPrivacy, Seed: 7, Epsilon: 0.5, EpsilonBudget: 100}},
		{"segment64", Config{Protection: NoProtection, SegmentSize: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					prev := par.SetWorkers(w)
					defer par.SetWorkers(prev)
					askBatchMatchesAskAs(t, tc.cfg)
				})
			}
		})
	}
}

// askBatchMatchesAskAs runs one protection's case of
// TestAskBatchMatchesAskAs at the current worker count.
func askBatchMatchesAskAs(t *testing.T, cfg Config) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 500, Seed: 11})
	serial, err := NewServer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewServer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	principal := ""
	if cfg.Protection == DifferentialPrivacy {
		principal = "alice"
	}
	qs := batchTestQueries()
	var afterFirst float64 // ε remaining after the first round
	for round := 1; round <= 2; round++ {
		want := make([]Answer, len(qs))
		wantErr := make([]error, len(qs))
		for i, q := range qs {
			want[i], wantErr[i] = serial.AskAs(principal, q)
		}
		got, errs := batched.AskBatch(principal, qs)
		for i := range qs {
			if (errs[i] == nil) != (wantErr[i] == nil) {
				t.Fatalf("round %d query %d: batch err %v, serial err %v", round, i, errs[i], wantErr[i])
			}
			if errs[i] != nil {
				if errs[i].Error() != wantErr[i].Error() {
					t.Fatalf("round %d query %d: batch err %q, serial err %q", round, i, errs[i], wantErr[i])
				}
				continue
			}
			if !sameAnswer(got[i], want[i]) {
				t.Fatalf("round %d query %d: batch answer %+v, serial answer %+v", round, i, got[i], want[i])
			}
		}
		if got := batched.LogDepth(); got != round*len(qs) {
			t.Fatalf("round %d: batch logged %d queries, want %d", round, got, round*len(qs))
		}
		if batches, queries := batched.BatchStats(); batches != int64(round) || queries != int64(round*len(qs)) {
			t.Fatalf("round %d: BatchStats = (%d, %d), want (%d, %d)", round, batches, queries, round, round*len(qs))
		}
		// The pre-sweep probe counts nothing: hits and misses are
		// counted once each, by askOne, exactly as the serial loop
		// counts them.
		sh, sm, _, _ := serial.CacheStats()
		bh, bm, _, _ := batched.CacheStats()
		if bh != sh || bm != sm {
			t.Fatalf("round %d: batch cache hits/misses %d/%d, serial %d/%d", round, bh, bm, sh, sm)
		}
		if cfg.Protection == DifferentialPrivacy {
			sr, _ := serial.BudgetRemaining(principal)
			br, _ := batched.BudgetRemaining(principal)
			if math.Float64bits(sr) != math.Float64bits(br) {
				t.Fatalf("round %d: batch debited to %g, serial to %g", round, br, sr)
			}
			if round == 1 {
				afterFirst = br
			} else if br != afterFirst {
				t.Fatalf("round 2 of cached hits debited ε: remaining %g, was %g", br, afterFirst)
			}
		}
	}
}

// TestAskBatchPartialFailure pins per-item degradation: a malformed query
// gets its error while its neighbours answer, and the error text matches
// the serial path's.
func TestAskBatchPartialFailure(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 100, Seed: 5})
	srv, err := NewServer(d, Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	bad := Query{Agg: Count, Where: Predicate{{Col: "no_such_column", Op: Eq, V: 1}}}
	good := Query{Agg: Count, Where: Predicate{{Col: "height", Op: Ge, V: 150}}}
	answers, errs := srv.AskBatch("", []Query{good, bad, good})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good queries failed: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("bad query succeeded")
	}
	if _, serialErr := srv.Ask(bad); serialErr == nil || serialErr.Error() != errs[1].Error() {
		t.Fatalf("batch error %q, serial error %q", errs[1], serialErr)
	}
	if answers[0].Value != answers[2].Value {
		t.Fatalf("repeated good query answered differently: %g vs %g", answers[0].Value, answers[2].Value)
	}
}

// TestAskBatchNoPrincipalDP pins that an unidentified DP batch fails every
// item with ErrNoPrincipal before any evaluation or ε accounting.
func TestAskBatchNoPrincipalDP(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 100, Seed: 5})
	srv, err := NewServer(d, Config{Protection: DifferentialPrivacy})
	if err != nil {
		t.Fatal(err)
	}
	_, errs := srv.AskBatch("", batchTestQueries())
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "principal") {
			t.Fatalf("query %d: err %v, want no-principal", i, err)
		}
	}
}

// TestAskBatchConcurrentIngest hammers AskBatch against concurrent Ingest
// and concurrent single-query traffic (run with -race). Each batch pins one
// snapshot, so within a batch the unconstrained COUNT can never regress
// below the dataset's initial size.
func TestAskBatchConcurrentIngest(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 200, Seed: 9})
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	all := Query{Agg: Count, Where: nil}
	band := Query{Agg: Count, Where: Predicate{{Col: "height", Op: Ge, V: 150}}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := make([]any, d.Cols())
		for j := range row {
			row[j] = d.Value(0, j)
		}
		for i := 0; i < 300; i++ {
			if err := srv.Ingest(row...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				answers, errs := srv.AskBatch("", []Query{all, band, all})
				for k, err := range errs {
					if err != nil {
						t.Errorf("batch query %d: %v", k, err)
						return
					}
				}
				if answers[0].Value != answers[2].Value {
					t.Errorf("one batch saw two versions: %g vs %g", answers[0].Value, answers[2].Value)
					return
				}
				if answers[0].Value < 200 {
					t.Errorf("unconstrained COUNT %g below initial size", answers[0].Value)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryBatchHTTP drives POST /querybatch end to end: per-item answers
// and errors in request order, agreement with the single-query endpoint,
// and the batch-width cap.
func TestQueryBatchHTTP(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 300, Seed: 13})
	srv, err := NewServer(d, Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(srv, HandlerConfig{BatchMax: 4})
	post := func(t *testing.T, body string) (*httptest.ResponseRecorder, BatchResponseJSON) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/querybatch", strings.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		var resp BatchResponseJSON
		if rr.Code == http.StatusOK {
			if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
		return rr, resp
	}

	rr, resp := post(t, `{"queries":[
		{"agg":"COUNT","where":[{"col":"height","op":">=","v":150}]},
		{"agg":"FROB"},
		{"agg":"SUM","attr":"blood_pressure","where":[{"col":"no_such","op":"=","v":1}]},
		{"agg":"COUNT","where":[{"col":"height","op":">=","v":150}]}]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	if len(resp.Answers) != 4 {
		t.Fatalf("got %d answers, want 4", len(resp.Answers))
	}
	if resp.Answers[0].Error != "" || resp.Answers[3].Error != "" {
		t.Fatalf("good queries errored: %q, %q", resp.Answers[0].Error, resp.Answers[3].Error)
	}
	if !strings.Contains(resp.Answers[1].Error, "FROB") {
		t.Fatalf("conversion error lost: %+v", resp.Answers[1])
	}
	if !strings.Contains(resp.Answers[2].Error, "no_such") {
		t.Fatalf("evaluation error lost: %+v", resp.Answers[2])
	}
	if resp.Answers[0].Value != resp.Answers[3].Value {
		t.Fatalf("repeat answered differently: %g vs %g", resp.Answers[0].Value, resp.Answers[3].Value)
	}
	// Agreement with the single-query endpoint.
	sq := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"agg":"COUNT","where":[{"col":"height","op":">=","v":150}]}`))
	srr := httptest.NewRecorder()
	h.ServeHTTP(srr, sq)
	var single AnswerJSON
	if err := json.NewDecoder(srr.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	if single.Value != resp.Answers[0].Value {
		t.Fatalf("/querybatch %g disagrees with /query %g", resp.Answers[0].Value, single.Value)
	}

	// Cap and empty-batch validation.
	var many bytes.Buffer
	many.WriteString(`{"queries":[`)
	for i := 0; i < 5; i++ {
		if i > 0 {
			many.WriteString(",")
		}
		fmt.Fprintf(&many, `{"agg":"COUNT"}`)
	}
	many.WriteString(`]}`)
	if rr, _ := post(t, many.String()); rr.Code != http.StatusBadRequest {
		t.Fatalf("over-cap batch: status %d", rr.Code)
	}
	if rr, _ := post(t, `{"queries":[]}`); rr.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", rr.Code)
	}
	if rr, _ := post(t, `not json`); rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d", rr.Code)
	}
}

// TestQueryBatchHTTPDisabled pins that BatchMax < 0 turns the endpoint off.
func TestQueryBatchHTTPDisabled(t *testing.T) {
	d := dataset.SyntheticTrial(dataset.TrialConfig{N: 50, Seed: 3})
	srv, err := NewServer(d, Config{Protection: NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(srv, HandlerConfig{BatchMax: -1})
	req := httptest.NewRequest(http.MethodPost, "/querybatch", strings.NewReader(`{"queries":[{"agg":"COUNT"}]}`))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusForbidden {
		t.Fatalf("disabled endpoint: status %d", rr.Code)
	}
}
