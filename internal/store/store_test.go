package store

import (
	"math"
	"math/rand"
	"testing"

	"privacy3d/internal/dataset"
)

// testSchema is deliberately mixed: two numeric columns (one with NaNs and
// duplicates), two categorical ones (one containing the empty string).
func testSchema() []dataset.Attribute {
	return []dataset.Attribute{
		{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		{Name: "y", Role: dataset.Confidential, Kind: dataset.Numeric},
		{Name: "c", Role: dataset.QuasiIdentifier, Kind: dataset.Nominal},
		{Name: "d", Role: dataset.NonConfidential, Kind: dataset.Nominal},
	}
}

// synthRows builds a dataset over testSchema with adversarial values:
// duplicates, zeros, NaNs, empty strings.
func synthRows(rows int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(testSchema()...)
	cvals := []string{"", "a", "b", "c"}
	dvals := []string{"p", "q"}
	for i := 0; i < rows; i++ {
		x := math.Floor(rng.Float64() * 20) // heavy duplication
		if rng.Intn(17) == 0 {
			x = math.NaN()
		}
		y := rng.NormFloat64() * 10
		d.MustAppend(x, y, cvals[rng.Intn(len(cvals))], dvals[rng.Intn(len(dvals))])
	}
	return d
}

// bruteEval is the naive reference evaluator, independent of the compiled
// scan path: straight Go comparisons over the source dataset.
func bruteEval(d *dataset.Dataset, conds []Cond) []bool {
	out := make([]bool, d.Rows())
	for i := range out {
		ok := true
		for _, c := range conds {
			j := d.Index(c.Col)
			if d.Attr(j).Kind == dataset.Numeric {
				v := d.Float(i, j)
				switch c.Op {
				case Lt:
					ok = v < c.V
				case Le:
					ok = v <= c.V
				case Gt:
					ok = v > c.V
				case Ge:
					ok = v >= c.V
				case Eq:
					ok = v == c.V
				case Ne:
					ok = v != c.V
				}
			} else {
				s := d.Cat(i, j)
				if c.Op == Eq {
					ok = s == c.S
				} else {
					ok = s != c.S
				}
			}
			if !ok {
				break
			}
		}
		out[i] = ok
	}
	return out
}

func randConds(rng *rand.Rand) []Cond {
	n := 1 + rng.Intn(3)
	conds := make([]Cond, 0, n)
	for k := 0; k < n; k++ {
		switch rng.Intn(3) {
		case 0:
			conds = append(conds, Cond{Col: "x", Op: Op(rng.Intn(6)), V: math.Floor(rng.Float64() * 22)})
		case 1:
			conds = append(conds, Cond{Col: "y", Op: Op(rng.Intn(4)), V: rng.NormFloat64() * 10})
		default:
			ops := []Op{Eq, Ne}
			vals := []string{"", "a", "b", "c", "zz-not-present"}
			conds = append(conds, Cond{Col: "c", Op: ops[rng.Intn(2)], S: vals[rng.Intn(len(vals))], Str: true})
		}
	}
	return conds
}

// TestEvalMatchesScanAndBrute is the core property test: for random
// predicates over adversarial data (NaNs, duplicates, empty strings,
// partial tail), the indexed path, the compiled scan path, and a naive
// reference all agree bit for bit — and SUM over the bitmap equals the
// sequential reference sum exactly (same float64 order).
func TestEvalMatchesScanAndBrute(t *testing.T) {
	// 1000 rows at segSize 128: 7 sealed segments + 104-row tail.
	d := synthRows(1000, 1)
	s, err := FromDataset(d, 128)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Rows() != 1000 {
		t.Fatalf("snapshot rows = %d, want 1000", snap.Rows())
	}
	ycol := snap.Index("y")
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		conds := randConds(rng)
		want := bruteEval(d, conds)
		idx, err := snap.Eval(conds)
		if err != nil {
			t.Fatalf("Eval(%v): %v", conds, err)
		}
		scan, err := snap.EvalScan(conds)
		if err != nil {
			t.Fatalf("EvalScan(%v): %v", conds, err)
		}
		var refSum float64
		for i, w := range want {
			if idx.Get(i) != w {
				t.Fatalf("Eval(%v) row %d = %v, want %v", conds, i, idx.Get(i), w)
			}
			if scan.Get(i) != w {
				t.Fatalf("EvalScan(%v) row %d = %v, want %v", conds, i, scan.Get(i), w)
			}
			if w {
				refSum += d.Float(i, ycol)
			}
		}
		if got := snap.Sum(idx, ycol); math.Float64bits(got) != math.Float64bits(refSum) {
			t.Fatalf("Sum(%v) = %x, want %x (byte identity)", conds, math.Float64bits(got), math.Float64bits(refSum))
		}
	}
}

func TestEvalNaNThreshold(t *testing.T) {
	d := synthRows(300, 3)
	s, err := FromDataset(d, 128)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	for _, op := range []Op{Lt, Le, Gt, Ge, Eq} {
		bm, err := snap.Eval([]Cond{{Col: "x", Op: op, V: math.NaN()}})
		if err != nil {
			t.Fatal(err)
		}
		if bm.Count() != 0 {
			t.Fatalf("x %v NaN matched %d rows, want 0", op, bm.Count())
		}
	}
	bm, err := snap.Eval([]Cond{{Col: "x", Op: Ne, V: math.NaN()}})
	if err != nil {
		t.Fatal(err)
	}
	if bm.Count() != 300 {
		t.Fatalf("x != NaN matched %d rows, want 300", bm.Count())
	}
}

func TestEmptyConjunctionAndUnknowns(t *testing.T) {
	d := synthRows(100, 4)
	s, err := FromDataset(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	bm, err := snap.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Count() != 100 {
		t.Fatalf("empty conjunction matched %d rows, want all 100", bm.Count())
	}
	// Unknown dictionary value: Eq matches nothing, Ne everything.
	bm, _ = snap.Eval([]Cond{{Col: "c", Op: Eq, S: "never-seen", Str: true}})
	if bm.Count() != 0 {
		t.Fatalf("Eq unknown value matched %d rows", bm.Count())
	}
	bm, _ = snap.Eval([]Cond{{Col: "c", Op: Ne, S: "never-seen", Str: true}})
	if bm.Count() != 100 {
		t.Fatalf("Ne unknown value matched %d rows, want 100", bm.Count())
	}
	// Compile errors.
	for _, bad := range [][]Cond{
		{{Col: "nope", Op: Eq, V: 1}},
		{{Col: "x", Op: Eq, S: "str", Str: true}},
		{{Col: "c", Op: Eq, V: 1}},
		{{Col: "c", Op: Lt, S: "a", Str: true}},
	} {
		if _, err := snap.Eval(bad); err == nil {
			t.Fatalf("Eval(%v) succeeded, want compile error", bad)
		}
	}
}

// TestEmptyStringIsAValue pins the dictionary treating "" as an ordinary
// category: Cond{S: "", Str: true} must match exactly the empty-string rows.
func TestEmptyStringIsAValue(t *testing.T) {
	d := synthRows(500, 5)
	s, err := FromDataset(d, 128)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	bm, err := snap.Eval([]Cond{{Col: "c", Op: Eq, S: "", Str: true}})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	cj := d.Index("c")
	for i := 0; i < d.Rows(); i++ {
		if d.Cat(i, cj) == "" {
			want++
		}
	}
	if want == 0 {
		t.Fatal("fixture has no empty-string rows; test is vacuous")
	}
	if bm.Count() != want {
		t.Fatalf(`c == "" matched %d rows, want %d`, bm.Count(), want)
	}
}

// TestZoneMapSkipAndAccept drives the numeric zone maps down both fast
// paths: monotonically increasing data makes segment ranges disjoint, so a
// band predicate must skip every segment but the one it covers (and accept
// that one whole), while a constant column exercises the Eq/Ne zone
// decisions. Every answer is cross-checked against the scan path.
func TestZoneMapSkipAndAccept(t *testing.T) {
	attrs := []dataset.Attribute{
		{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		{Name: "k", Role: dataset.Confidential, Kind: dataset.Numeric},
	}
	s, err := New(attrs, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ { // 4 sealed segments, empty tail
		if err := s.Append(float64(i), 7.0); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	cases := []struct {
		conds []Cond
		want  int
	}{
		// Band covering exactly segment 1: zone accept there, skip elsewhere.
		{[]Cond{{Col: "x", Op: Ge, V: 64}, {Col: "x", Op: Lt, V: 128}}, 64},
		// Below/above every zone: all four segments skip.
		{[]Cond{{Col: "x", Op: Lt, V: 0}}, 0},
		{[]Cond{{Col: "x", Op: Ge, V: 256}}, 0},
		{[]Cond{{Col: "x", Op: Gt, V: 255}}, 0},
		// Interval containing every zone: all four segments accept whole.
		{[]Cond{{Col: "x", Op: Le, V: 1000}}, 256},
		// Boundary exclusivity at a zone edge.
		{[]Cond{{Col: "x", Op: Gt, V: 63}, {Col: "x", Op: Le, V: 64}}, 1},
		// Ne outside every zone accepts whole segments.
		{[]Cond{{Col: "x", Op: Ne, V: 300}}, 256},
		// Constant column: Eq in/outside the degenerate [7,7] zone.
		{[]Cond{{Col: "k", Op: Eq, V: 7}}, 256},
		{[]Cond{{Col: "k", Op: Eq, V: 8}}, 0},
		{[]Cond{{Col: "k", Op: Ne, V: 7}}, 0},
	}
	for _, c := range cases {
		idx, err := snap.Eval(c.conds)
		if err != nil {
			t.Fatalf("Eval(%v): %v", c.conds, err)
		}
		if idx.Count() != c.want {
			t.Errorf("Eval(%v) matched %d rows, want %d", c.conds, idx.Count(), c.want)
		}
		scan, err := snap.EvalScan(c.conds)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < snap.Rows(); i++ {
			if idx.Get(i) != scan.Get(i) {
				t.Fatalf("Eval(%v) row %d = %v, scan = %v", c.conds, i, idx.Get(i), scan.Get(i))
			}
		}
	}
}

// TestZoneMapAllNaNSegment pins the degenerate zone: a segment whose numeric
// column is entirely NaN has an empty sorted index, fails every interval and
// comparison, and matches != like the scan path.
func TestZoneMapAllNaNSegment(t *testing.T) {
	attrs := []dataset.Attribute{{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric}}
	s, err := New(attrs, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ { // segment 0 all NaN, segment 1 numeric
		v := math.NaN()
		if i >= 64 {
			v = float64(i)
		}
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	bm, err := snap.Eval([]Cond{{Col: "x", Op: Ge, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if bm.Count() != 64 {
		t.Fatalf("x >= 0 matched %d rows, want 64 (NaN segment must skip)", bm.Count())
	}
	bm, err = snap.Eval([]Cond{{Col: "x", Op: Ne, V: 70}})
	if err != nil {
		t.Fatal(err)
	}
	if bm.Count() != 127 {
		t.Fatalf("x != 70 matched %d rows, want 127 (NaN rows match !=)", bm.Count())
	}
}

// TestZeroValueCondIsEmptyString pins the compile lenience shared with
// sdcquery: a fully zero-valued condition (Str unset, S == "", V == 0)
// against a categorical column is an empty-string comparison, while any
// non-zero V stays a kind-mismatch error.
func TestZeroValueCondIsEmptyString(t *testing.T) {
	d := synthRows(500, 5)
	s, err := FromDataset(d, 128)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	explicit, err := snap.Eval([]Cond{{Col: "c", Op: Eq, S: "", Str: true}})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := snap.Eval([]Cond{{Col: "c", Op: Eq}})
	if err != nil {
		t.Fatalf("zero-valued categorical cond rejected: %v", err)
	}
	if explicit.Count() == 0 {
		t.Fatal("fixture has no empty-string rows; test is vacuous")
	}
	if zero.Count() != explicit.Count() {
		t.Fatalf("zero-valued cond matched %d rows, explicit empty-string %d", zero.Count(), explicit.Count())
	}
	scan, err := snap.EvalScan([]Cond{{Col: "c", Op: Eq}})
	if err != nil {
		t.Fatalf("EvalScan: zero-valued categorical cond rejected: %v", err)
	}
	sameBits(t, "zero-valued cond, EvalScan vs Eval", scan, zero)
	if _, err := snap.Eval([]Cond{{Col: "c", Op: Eq, V: 2}}); err == nil {
		t.Fatal("non-zero numeric value against categorical column accepted")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	d := synthRows(700, 6)
	s, err := FromDataset(d, 128)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Snapshot().Materialize()
	if !dataset.EqualValues(d, got) {
		t.Fatal("Materialize() differs from the source dataset")
	}
}

func TestAppendRowAndAccessors(t *testing.T) {
	s, err := New(testSchema(), 64)
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.Version() // the empty store is already published once
	if s.Rows() != 0 || v0 == 0 {
		t.Fatalf("fresh store rows=%d version=%d", s.Rows(), v0)
	}
	for i := 0; i < 130; i++ { // crosses two seal boundaries
		if err := s.Append(float64(i), float64(-i), "a", "p"); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	// Version is a publish counter, not the row count: one publish per Append.
	if snap.Rows() != 130 || snap.Version() != v0+130 {
		t.Fatalf("rows=%d version=%d, want rows 130 version %d", snap.Rows(), snap.Version(), v0+130)
	}
	xj, cj := snap.Index("x"), snap.Index("c")
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if got := snap.Float(i, xj); got != float64(i) {
			t.Fatalf("Float(%d) = %g, want %d", i, got, i)
		}
		if got := snap.Cat(i, cj); got != "a" {
			t.Fatalf("Cat(%d) = %q, want a", i, got)
		}
	}
	if err := s.Append("not-a-number", 0.0, "a", "p"); err == nil {
		t.Fatal("Append with wrong kind succeeded")
	}
	if err := s.Append(1.0, 2.0, "a"); err == nil {
		t.Fatal("Append with wrong arity succeeded")
	}
}

func TestInvalidSegmentSize(t *testing.T) {
	if _, err := New(testSchema(), 100); err == nil {
		t.Fatal("segment size 100 accepted; must be a multiple of 64")
	}
	// Row offsets are 16-bit: a segment holds at most MaxSegmentSize rows.
	for _, n := range []int{-64, 32, MaxSegmentSize + 64, 1 << 20} {
		if _, err := New(testSchema(), n); err == nil {
			t.Errorf("New accepted segment size %d", n)
		}
		if _, err := Create(t.TempDir(), testSchema(), Options{SegmentSize: n}); err == nil {
			t.Errorf("Create accepted segment size %d", n)
		}
	}
	for _, n := range []int{64, MaxSegmentSize} {
		s, err := Create(t.TempDir(), testSchema(), Options{SegmentSize: n})
		if err != nil {
			t.Fatalf("Create with segment size %d: %v", n, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.SegmentSize() != DefaultSegmentSize {
		t.Fatalf("default segment size = %d", s.SegmentSize())
	}
}
