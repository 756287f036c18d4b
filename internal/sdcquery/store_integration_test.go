package sdcquery

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdc"
	"privacy3d/internal/store"
)

// mixedDataset builds a schema with a categorical column that genuinely
// contains the empty string next to numeric zeros — the shape that made the
// seed's Cond.String() ambiguous.
func mixedDataset() *dataset.Dataset {
	d := dataset.New(
		dataset.Attribute{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "tag", Role: dataset.NonConfidential, Kind: dataset.Nominal},
		dataset.Attribute{Name: "v", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	vals := []struct {
		x   float64
		tag string
		v   float64
	}{
		{0, "", 10}, {0, "zero", 20}, {1, "", 30}, {2, "a", 40},
		{3, "a", 50}, {0, "b", 60}, {4, "", 70}, {5, "b", 80},
	}
	for _, r := range vals {
		d.MustAppend(r.x, r.tag, r.v)
	}
	return d
}

// TestCondStringCollisionRegression pins the satellite fix: a categorical
// condition on the empty string and a numeric condition on 0 used to render
// to the same canonical string — which is the answer-cache and camouflage
// key, so the two DISTINCT queries shared cached answers. The renderings
// must differ, and a server must answer the two queries differently.
func TestCondStringCollisionRegression(t *testing.T) {
	strCond := Cond{Col: "tag", Op: Eq, S: "", Str: true}
	numCond := Cond{Col: "tag", Op: Eq, V: 0}
	if strCond.String() == numCond.String() {
		t.Fatalf("collision: %q renders both the empty-string and the numeric-0 condition", strCond.String())
	}
	if got, want := strCond.String(), `tag = ""`; got != want {
		t.Fatalf("string cond renders %q, want %q", got, want)
	}
	if got, want := numCond.String(), "tag = 0"; got != want {
		t.Fatalf("numeric cond renders %q, want %q", got, want)
	}

	// End to end: on a server, COUNT(tag = "") and COUNT(x = 0) are
	// different queries with different answers; with the seed's ambiguous
	// rendering and an answer cache, look-alike canonical strings could
	// serve one query's cached answer for the other.
	d := mixedDataset()
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	qStr := Query{Agg: Count, Where: Predicate{strCond}}
	qNum := Query{Agg: Count, Where: Predicate{{Col: "x", Op: Eq, V: 0}}}
	if qStr.String() == qNum.String() {
		t.Fatalf("distinct queries share the canonical string %q", qStr.String())
	}
	aStr, err := srv.Ask(qStr)
	if err != nil {
		t.Fatal(err)
	}
	aNum, err := srv.Ask(qNum)
	if err != nil {
		t.Fatal(err)
	}
	if aStr.Value != 3 {
		t.Fatalf(`COUNT(tag = "") = %g, want 3`, aStr.Value)
	}
	if aNum.Value != 3 {
		t.Fatalf("COUNT(x = 0) = %g, want 3", aNum.Value)
	}
}

// TestCompileKindMismatch pins the compiled predicate's up-front
// validation: string values on numeric columns and numeric values on
// categorical columns are errors, reported once at compile time.
func TestCompileKindMismatch(t *testing.T) {
	d := mixedDataset()
	cases := []struct {
		p    Predicate
		want string
	}{
		{Predicate{{Col: "x", Op: Eq, S: "hello", Str: true}}, "string value"},
		{Predicate{{Col: "x", Op: Eq, Str: true}}, "string value"},
		{Predicate{{Col: "tag", Op: Eq, V: 7}}, "numeric value"},
		{Predicate{{Col: "tag", Op: Lt, S: "a", Str: true}}, "not valid for categorical"},
		{Predicate{{Col: "missing", Op: Eq, V: 1}}, "unknown column"},
	}
	for _, c := range cases {
		_, err := c.p.Compile(d.Attrs())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%v) err = %v, want %q", c.p, err, c.want)
		}
		// The query evaluator and the server must report the same error.
		if _, err2 := (Query{Agg: Count, Where: c.p}).Evaluate(d); err2 == nil || err2.Error() != err.Error() {
			t.Errorf("Evaluate(%v) err = %v, want %v", c.p, err2, err)
		}
	}
}

// TestServerMatchesEvaluate pins the shared-evaluator satellite across the
// storage rewire: for every aggregate the unprotected server answer —
// computed via segment indexes and bitmap-driven sweeps — is byte-identical
// to Query.Evaluate's compiled scan.
func TestServerMatchesEvaluate(t *testing.T) {
	d := mixedDataset()
	queries := []Query{
		{Agg: Count, Where: Predicate{{Col: "x", Op: Ge, V: 1}}},
		{Agg: Sum, Attr: "v", Where: Predicate{{Col: "tag", Op: Ne, S: "a"}}},
		{Agg: Avg, Attr: "v", Where: Predicate{{Col: "tag", Op: Eq, S: "", Str: true}}},
		{Agg: Sum, Attr: "v", Where: Predicate{}},
	}
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := q.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		a, err := srv.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Value) != math.Float64bits(want) {
			t.Errorf("server %s = %x, Evaluate = %x (byte identity)",
				q, math.Float64bits(a.Value), math.Float64bits(want))
		}
	}
}

// TestReopenedStoreMatchesResident serves a durable datadir after a cold
// reopen, once uncapped and once with a memory cap at a quarter of the
// resident bytes, and requires every answer of a selective workload to be
// bit-identical to a resident server's. The capped run must leave segments
// spilled, so some of its answers were decoded from segment files.
func TestReopenedStoreMatchesResident(t *testing.T) {
	d, err := dataset.Synth("trial", 4*256+30, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.CreateFromDataset(dir, d, store.Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	residentBytes := st.TierStats().ResidentBytes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Protection: NoProtection, AnswerCacheCap: -1}
	resident, err := NewServer(d, Config{Protection: NoProtection, AnswerCacheCap: -1, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Narrow bands, some pinned to the rare categorical value.
	var qs []Query
	for _, band := range []struct {
		col    string
		lo, hi float64
	}{{"height", 165, 166}, {"height", 180, 183}, {"weight", 70, 71.5}, {"blood_pressure", 118, 119}} {
		where := Predicate{{Col: band.col, Op: Ge, V: band.lo}, {Col: band.col, Op: Lt, V: band.hi}}
		qs = append(qs,
			Query{Agg: Count, Where: where},
			Query{Agg: Sum, Attr: "blood_pressure", Where: where},
			Query{Agg: Sum, Attr: "weight", Where: append(where, Cond{Col: "aids", Op: Eq, S: "Y", Str: true})})
	}
	want := make([][3]uint64, len(qs))
	for i, q := range qs {
		a, err := resident.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answerBits(a)
	}
	for _, memCap := range []int64{0, residentBytes / 4} {
		st, err := store.Open(dir, store.Options{MemCap: memCap})
		if err != nil {
			t.Fatalf("memcap %d: %v", memCap, err)
		}
		srv, err := NewServerFromStore(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			a, err := srv.Ask(q)
			if err != nil {
				t.Fatalf("memcap %d: %s: %v", memCap, q, err)
			}
			if answerBits(a) != want[i] {
				t.Errorf("memcap %d: %s answered %x, resident server %x", memCap, q, answerBits(a), want[i])
			}
		}
		if ts := st.TierStats(); memCap > 0 && ts.Spilled == 0 {
			t.Errorf("memcap %d of %d resident bytes left no segment spilled", memCap, residentBytes)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerIngest pins the growing-database semantics: ingested rows are
// visible to the next query (the versioned cache key prevents stale hits),
// Rows/Version advance, and Dataset() materializes the grown view while
// the construction dataset stays untouched.
func TestServerIngest(t *testing.T) {
	d := mixedDataset()
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Agg: Count, Where: Predicate{{Col: "x", Op: Ge, V: 0}}}
	a, err := srv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 8 {
		t.Fatalf("pre-ingest COUNT = %g, want 8", a.Value)
	}
	sameDataset(t, servedDataset(t, srv), d)
	v0 := srv.Version()
	for i := 0; i < 100; i++ {
		if err := srv.Ingest(float64(i), "new", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Rows() != 108 || srv.Version() != v0+100 {
		t.Fatalf("rows=%d version=%d after ingest, want 108/%d", srv.Rows(), srv.Version(), v0+100)
	}
	// The identical query re-asked must see the new rows — a stale cache
	// hit here is exactly what the versioned cache key rules out.
	a, err = srv.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 108 {
		t.Fatalf("post-ingest COUNT = %g, want 108 (stale cached answer?)", a.Value)
	}
	got := servedDataset(t, srv)
	if got.Rows() != 108 || d.Rows() != 8 {
		t.Fatalf("materialized rows=%d, original rows=%d; want 108/8", got.Rows(), d.Rows())
	}
	if got.Cat(107, got.Index("tag")) != "new" {
		t.Fatal("materialized dataset missing ingested values")
	}
}

// TestNoiseIndependentAcrossVersions pins the fix for the cross-ingest
// differencing leak: every noise derivation (perturbation, camouflage, dp)
// keys on the snapshot version, so asking the same query before and after
// an Ingest draws independent noise — the difference of the two answers
// must NOT equal the exact aggregate contribution of the ingested rows.
// (With the old version-free keys it always did: v1+nz and v2+nz difference
// to v2−v1 with zero noise, even though under DP ε was charged twice.)
// Repeats within one version must still re-release identically.
func TestNoiseIndependentAcrossVersions(t *testing.T) {
	q := Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Ge, V: 0}}}
	configs := []Config{
		{Protection: Perturbation, Seed: 11, SegmentSize: 64},
		{Protection: Camouflage, Seed: 11, SegmentSize: 64},
		{Protection: DifferentialPrivacy, Seed: 11, SegmentSize: 64, Epsilon: 0.5, EpsilonBudget: 10},
	}
	for _, cfg := range configs {
		srv, err := NewServer(mixedDataset(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		truth1, err := q.Evaluate(servedDataset(t, srv))
		if err != nil {
			t.Fatal(err)
		}
		a1, err := srv.AskAs("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := srv.Ingest(1.0, "new", 50.0); err != nil {
				t.Fatal(err)
			}
		}
		truth2, err := q.Evaluate(servedDataset(t, srv))
		if err != nil {
			t.Fatal(err)
		}
		a2, err := srv.AskAs("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		released := func(a Answer) float64 {
			if a.Interval {
				return (a.Lo + a.Hi) / 2 // camouflage: the midpoint carries the offset
			}
			return a.Value
		}
		if released(a2)-released(a1) == truth2-truth1 {
			t.Errorf("%v: answers across an Ingest difference to the exact ingested contribution %g — noise reused across versions",
				cfg.Protection, truth2-truth1)
		}
		// Within one version, a repeat is still the identical re-release.
		a3, err := srv.AskAs("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(released(a3)) != math.Float64bits(released(a2)) {
			t.Errorf("%v: repeat at one version released %x then %x", cfg.Protection, math.Float64bits(released(a2)), math.Float64bits(released(a3)))
		}
	}
}

// TestZeroValueCondCompat pins the compile lenience for hand-built library
// conditions: Cond{Col: catCol, Op: Eq} (all fields zero) compiles as an
// empty-string comparison — the behavior Predicate.Match had before Str
// existed — on both the library evaluator and the server's index path,
// while a non-zero V stays a kind-mismatch error.
func TestZeroValueCondCompat(t *testing.T) {
	d := mixedDataset()
	zero := Predicate{{Col: "tag", Op: Eq}}
	rows, err := zero.QuerySet(d)
	if err != nil {
		t.Fatalf("zero-valued categorical cond rejected: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("QuerySet matched %d rows, want the 3 empty-tag rows", len(rows))
	}
	srv, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Ask(Query{Agg: Count, Where: zero})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 3 {
		t.Errorf("COUNT = %g, want 3", a.Value)
	}
	// Ne complement and the surviving error case.
	if rows, err = (Predicate{{Col: "tag", Op: Ne}}).QuerySet(d); err != nil || len(rows) != 5 {
		t.Errorf("Ne zero-valued cond: rows=%d err=%v, want 5 rows", len(rows), err)
	}
	if _, err := (Predicate{{Col: "tag", Op: Eq, V: 7}}).Compile(d.Attrs()); err == nil {
		t.Error("non-zero numeric value against categorical column accepted")
	}
}

// TestAuditedConsistentUnderIngest pins the snapshot semantics the auditor
// needs: audited answers stay self-consistent while the database grows
// mid-stream — the indicator system mixes vector widths across versions
// without panicking or losing the disclosure property.
func TestAuditedConsistentUnderIngest(t *testing.T) {
	d := mixedDataset()
	srv, err := NewServer(d, Config{Protection: Auditing, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// SUM over x >= 1 (5 records) answers fine at version 0.
	a, err := srv.Ask(Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Ge, V: 1}}})
	if err != nil || a.Denied {
		t.Fatalf("first audited sum: %+v, %v", a, err)
	}
	for i := 0; i < 50; i++ {
		if err := srv.Ingest(100+float64(i), "grown", 1000+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A query isolating one record must still be caught after growth —
	// x = 1 matches exactly one original record.
	a, err = srv.Ask(Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Eq, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Denied {
		t.Fatal("auditing answered a single-record sum after ingest")
	}
	// A broad query over the grown database still answers.
	a, err = srv.Ask(Query{Agg: Sum, Attr: "v", Where: Predicate{{Col: "x", Op: Ge, V: 0}}})
	if err != nil || a.Denied {
		t.Fatalf("broad audited sum after ingest: %+v, %v", a, err)
	}
}

// servedDataset is srv.Dataset for a server whose files are intact.
func servedDataset(t *testing.T, srv *Server) *dataset.Dataset {
	t.Helper()
	d, err := srv.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameDataset fails unless got has want's schema — names, roles, kinds and
// ordinal categories — and bit-identical values: floats compare through
// math.Float64bits, so the sign of −0 and NaN payloads count, which
// dataset.EqualValues ignores.
func sameDataset(t *testing.T, got, want *dataset.Dataset) {
	t.Helper()
	if !reflect.DeepEqual(got.Attrs(), want.Attrs()) {
		t.Fatalf("Attrs() = %+v, want %+v", got.Attrs(), want.Attrs())
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("Rows() = %d, want %d", got.Rows(), want.Rows())
	}
	for j, a := range want.Attrs() {
		for i := 0; i < want.Rows(); i++ {
			if a.Kind == dataset.Numeric {
				if g, w := math.Float64bits(got.Float(i, j)), math.Float64bits(want.Float(i, j)); g != w {
					t.Fatalf("row %d %s = %#x, want %#x", i, a.Name, g, w)
				}
			} else if g, w := got.Cat(i, j), want.Cat(i, j); g != w {
				t.Fatalf("row %d %s = %q, want %q", i, a.Name, g, w)
			}
		}
	}
}

// edgeDataset is 3 segments of 64 rows plus a 17-row tail, with NaN
// payloads, ±0 and ±Inf in a confidential column, empty strings in a
// nominal one, an ordinal column with a fixed category order, and an
// identifier column /protect must strip.
func edgeDataset() *dataset.Dataset {
	d := dataset.New(
		dataset.Attribute{Name: "id", Role: dataset.Identifier, Kind: dataset.Nominal},
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "edu", Role: dataset.NonConfidential, Kind: dataset.Ordinal, Categories: []string{"low", "mid", "high"}},
		dataset.Attribute{Name: "tag", Role: dataset.NonConfidential, Kind: dataset.Nominal},
		dataset.Attribute{Name: "x", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	odd := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	}
	for i := 0; i < 3*64+17; i++ {
		x := float64(i%23) * 1.5
		if i%5 == 0 {
			x = odd[(i/5)%len(odd)]
		}
		d.MustAppend(fmt.Sprintf("p%03d", i), float64(20+i%47), []string{"low", "mid", "high"}[i%3],
			[]string{"", "a", "", "b"}[i%4], x)
	}
	return d
}

// TestServerDatasetMatchesConstruction pins Dataset() without a retained
// copy of the construction dataset: the materialized snapshot has the
// construction schema and bit-identical values, memory-only and durable
// with spilled segments, and POST /protect releases exactly the bytes
// sdc.ApplySeed produces over the identifier-free construction dataset.
func TestServerDatasetMatchesConstruction(t *testing.T) {
	d := edgeDataset()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"memory", Config{Protection: NoProtection, SegmentSize: 64}},
		{"spilled", Config{Protection: NoProtection, SegmentSize: 64, DataDir: t.TempDir(), MemCap: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if tc.cfg.MemCap > 0 && srv.st.TierStats().Spilled == 0 {
				t.Fatal("no segment spilled under the memory cap")
			}
			sameDataset(t, servedDataset(t, srv), d)

			h := httptest.NewServer(NewHandler(srv, HandlerConfig{OwnerToken: testOwnerToken}))
			defer h.Close()
			for _, req := range []ProtectRequest{
				{Method: "mdav", Seed: 7, Params: map[string]float64{"k": 3}},
				{Method: "noise", Seed: 7},
			} {
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, got := postProtect(t, h.URL, testOwnerToken, string(body))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %s: %s", req.Method, resp.Status, got)
				}
				masked, rep, err := sdc.ApplySeed(context.Background(), req.Method, d.DropRole(dataset.Identifier),
					sdc.Params{Values: req.Params}, req.Seed)
				if err != nil {
					t.Fatal(err)
				}
				var csv strings.Builder
				if err := masked.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				want := httptest.NewRecorder()
				writeJSON(want, http.StatusOK, ProtectResponse{Report: rep, CSV: csv.String()})
				if want.Body.Len() == 0 || !bytes.Equal(got, want.Body.Bytes()) {
					t.Fatalf("%s: /protect released\n%s\nwant\n%s", req.Method, got, want.Body.Bytes())
				}
			}
		})
	}
}
