package store

import (
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"testing"

	"privacy3d/internal/dataset"
)

// The Eval/EvalScan benchmarks compare the two storage paths on the same
// selective band — the workload cmd/bench gates at full scale. Sizes
// stay modest so `make check`'s -benchtime 1x smoke pass stays cheap.

func benchSnapshot(b *testing.B, rows int) *Snapshot {
	b.Helper()
	d, err := dataset.Synth("trial", rows, 20070923)
	if err != nil {
		b.Fatal(err)
	}
	s, err := FromDataset(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	return s.Snapshot()
}

var benchConds = []Cond{
	{Col: "height", Op: Ge, V: 165},
	{Col: "height", Op: Lt, V: 166},
	{Col: "aids", Op: Eq, S: "Y", Str: true},
}

func BenchmarkEvalIndexed100k(b *testing.B) {
	snap := benchSnapshot(b, 100_000)
	bp := snap.Index("blood_pressure")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm, err := snap.Eval(benchConds)
		if err != nil {
			b.Fatal(err)
		}
		_ = snap.Sum(bm, bp)
	}
}

func BenchmarkEvalScan100k(b *testing.B) {
	snap := benchSnapshot(b, 100_000)
	bp := snap.Index("blood_pressure")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm, err := snap.EvalScan(benchConds)
		if err != nil {
			b.Fatal(err)
		}
		_ = snap.Sum(bm, bp)
	}
}

// The band pair above selects a sliver of each segment. The threshold pair
// below selects most of it: a one-sided height threshold matches ~70% of
// rows, where filling the cheaper side of a conjunct pays off.
var (
	thresholdConds = []Cond{{Col: "height", Op: Lt, V: 175}}
	conjBroadConds = []Cond{
		{Col: "aids", Op: Eq, S: "Y", Str: true},
		{Col: "height", Op: Lt, V: 175},
	}
)

func benchEvalOnly(b *testing.B, conds []Cond, minShare, maxShare float64) {
	snap := benchSnapshot(b, 100_000)
	bm, err := snap.Eval(conds)
	if err != nil {
		b.Fatal(err)
	}
	if share := float64(bm.Count()) / float64(snap.Rows()); share < minShare || share > maxShare {
		b.Fatalf("selection covers %.2f of the rows, want [%.2f, %.2f]", share, minShare, maxShare)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Eval(conds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalThreshold100k(b *testing.B) { benchEvalOnly(b, thresholdConds, 0.6, 0.8) }

func BenchmarkEvalConjBroad100k(b *testing.B) { benchEvalOnly(b, conjBroadConds, 0.01, 0.8) }

// BenchmarkEvalBatch8x100k evaluates eight predicates in one sharded column
// sweep; BenchmarkEvalLoop8x100k answers the same eight one Eval at a time —
// the pair quantifies what the batch amortises.
func batchBenchShapes() [][]Cond {
	out := make([][]Cond, 8)
	for k := range out {
		out[k] = []Cond{
			{Col: "height", Op: Ge, V: float64(150 + 4*k)},
			{Col: "height", Op: Lt, V: float64(152 + 4*k)},
			{Col: "aids", Op: Eq, S: "Y", Str: true},
		}
	}
	return out
}

func BenchmarkEvalBatch8x100k(b *testing.B) {
	snap := benchSnapshot(b, 100_000)
	shapes := batchBenchShapes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.EvalBatch(shapes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalLoop8x100k(b *testing.B) {
	snap := benchSnapshot(b, 100_000)
	shapes := batchBenchShapes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, conds := range shapes {
			if _, err := snap.Eval(conds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// sumFullSweep is the pre-optimisation Sum loop (no zero-word or zero-
// segment skipping), kept as the baseline BenchmarkSumSparse* measures the
// popcount-guided skip against. Identical summation order, so both produce
// the same float64 bit pattern.
func sumFullSweep(s *Snapshot, bm *Bitmap, col int) float64 {
	var sum float64
	for _, sg := range s.segs {
		c := &sg.mustAcquire().nums[col]
		words := sg.window(bm.words)
		for wi, w := range words {
			base := wi << 6
			for w != 0 {
				sum += c.at(base + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
	if s.tailLen > 0 {
		base := len(s.segs) * s.store.segSize
		colv := s.tailNums[col]
		for i := 0; i < s.tailLen; i++ {
			if bm.Get(base + i) {
				sum += colv[i]
			}
		}
	}
	return sum
}

// sparseBenchBitmap selects one narrow height band: a handful of rows
// spread over a 100k-row store, leaving almost every bitmap word zero.
func sparseBenchBitmap(b *testing.B, snap *Snapshot) *Bitmap {
	b.Helper()
	bm, err := snap.Eval([]Cond{
		{Col: "height", Op: Ge, V: 190},
		{Col: "height", Op: Lt, V: 190.2},
	})
	if err != nil {
		b.Fatal(err)
	}
	if n := bm.Count(); n == 0 || n > 2000 {
		b.Fatalf("sparse selection has %d rows", n)
	}
	return bm
}

func BenchmarkSumSparse100k(b *testing.B) {
	snap := benchSnapshot(b, 100_000)
	bm := sparseBenchBitmap(b, snap)
	bp := snap.Index("blood_pressure")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snap.Sum(bm, bp)
	}
}

// BenchmarkSumDense100k sums over a one-sided threshold that selects
// about 70% of the rows, so almost every word is non-zero and the bit loop
// reads a dictionary value per selected row.
func BenchmarkSumDense100k(b *testing.B) {
	snap := benchSnapshot(b, 100_000)
	bm, err := snap.Eval(thresholdConds)
	if err != nil {
		b.Fatal(err)
	}
	if share := float64(bm.Count()) / float64(snap.Rows()); share < 0.6 || share > 0.8 {
		b.Fatalf("dense selection covers %.2f of the rows", share)
	}
	bp := snap.Index("blood_pressure")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snap.Sum(bm, bp)
	}
}

func BenchmarkSumSparseFullSweep100k(b *testing.B) {
	snap := benchSnapshot(b, 100_000)
	bm := sparseBenchBitmap(b, snap)
	bp := snap.Index("blood_pressure")
	if a, o := snap.Sum(bm, bp), sumFullSweep(snap, bm, bp); a != o {
		b.Fatalf("skip-optimised Sum %g differs from full sweep %g", a, o)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sumFullSweep(snap, bm, bp)
	}
}

// sealBenchColumns returns the columns of one 8192-row segment of the
// synthetic kind ("trial" or "census") as the open tail holds them, and
// the schema: the input a seal indexes and writes.
func sealBenchColumns(b *testing.B, kind string) ([][]float64, [][]uint32, []dataset.Attribute) {
	b.Helper()
	d, err := dataset.Synth(kind, DefaultSegmentSize, 20070923)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(d.Attrs(), DefaultSegmentSize)
	if err != nil {
		b.Fatal(err)
	}
	nums, cats := make([][]float64, d.Cols()), make([][]uint32, d.Cols())
	for j, a := range d.Attrs() {
		if a.Kind == dataset.Numeric {
			nums[j] = d.NumColumn(j)
			continue
		}
		cats[j] = make([]uint32, d.Rows())
		for i, str := range d.CatColumn(j) {
			cats[j][i] = s.dict.intern(str)
		}
	}
	return nums, cats, d.Attrs()
}

// sealSink keeps BenchmarkSeal's index builds live.
var sealSink *segData

// BenchmarkSeal times what sealing one segment of a durable store costs:
// building its indexes with the builder a store reuses across its seals,
// and writing its checksummed file (tmp + fsync + rename). The index
// sub-benchmark times the index build alone. trial columns hold a few
// hundred distinct values each (data recorded at a fixed precision);
// census columns are continuous, every value distinct.
func BenchmarkSeal(b *testing.B) {
	for _, kind := range []string{"trial", "census"} {
		nums, cats, attrs := sealBenchColumns(b, kind)
		db := newDictBuilder()
		b.Run("index/"+kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sealSink = db.build(nums, cats)
			}
		})
		b.Run("seal/"+kind, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				d := db.build(nums, cats)
				if _, _, err := writeSegFile(dir, segFileName(0), 0, attrs, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// openBenchDir writes a durable store of rows trial rows in default-size
// segments and closes it, returning its directory.
func openBenchDir(b *testing.B, rows int) string {
	b.Helper()
	d, err := dataset.Synth("trial", rows, 20070923)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	s, err := CreateFromDataset(dir, d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkOpen times a restart of a datadir: Open (manifest recovery,
// dictionary and tail load, the epoch commit) and Close (the final
// commit), at 100k rows (12 segments and a 1 696-row tail), at 250k rows
// (30 segments and a 4 240-row tail, the shape of perfbench's
// spill_clustered datadir) and at 1M rows (122 segments and a 576-row
// tail, the datadir perfbench's miss_1m reopens).
func BenchmarkOpen(b *testing.B) {
	for _, c := range []struct {
		name string
		rows int
	}{{"100k", 100_000}, {"250k", 250_000}, {"1M", 1_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			dir := openBenchDir(b, c.rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManifest times the manifest codec on the newest manifest of a
// 1M-row datadir (122 segments): encode is what every commit pays before
// its write, decode what Open pays per manifest it reads.
func BenchmarkManifest(b *testing.B) {
	dir := openBenchDir(b, 1_000_000)
	seqs, err := listManifests(dir)
	if err != nil || len(seqs) == 0 {
		b.Fatalf("listManifests: %v (%d found)", err, len(seqs))
	}
	m, err := readManifest(filepath.Join(dir, manifestFileName(seqs[0])))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := encodeManifest(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeManifest(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeManifest(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadSpilled times one decode of a spilled segment: the whole
// file read, its checksum and the column decode.
func BenchmarkLoadSpilled(b *testing.B) {
	s, err := Open(openBenchDir(b, DefaultSegmentSize), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	src := s.Snapshot().segs[0].src
	b.SetBytes(src.size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sealSink, err = src.Load(); err != nil {
			b.Fatal(err)
		}
	}
}

// spanQueries draws 64 conjunctions of each cache-miss query shape the
// perfbench miss_1m mix serves, with its constants: a narrow band on
// height or weight, a one-sided threshold on one of the five numeric
// columns, and aids = Y with such a threshold.
func spanQueries(seed int64) map[string][][]Cond {
	rng := rand.New(rand.NewSource(seed))
	cols := []struct {
		name     string
		mean, sd float64
	}{{"height", 170, 9}, {"weight", 74, 13}, {"qi3", 50, 15}, {"qi4", 50, 15}, {"blood_pressure", 121, 10}}
	round2 := func(x float64) float64 { return math.Round(x*100) / 100 }
	threshold := func() Cond {
		c := cols[rng.Intn(len(cols))]
		op := Lt
		if rng.Intn(2) == 1 {
			op = Ge
		}
		return Cond{Col: c.name, Op: op, V: round2(c.mean + c.sd*(3*rng.Float64()-1.5))}
	}
	out := map[string][][]Cond{}
	for q := 0; q < 64; q++ {
		c := cols[rng.Intn(2)]
		lo := round2(c.mean + c.sd*(4*rng.Float64()-2))
		out["band"] = append(out["band"], []Cond{{Col: c.name, Op: Ge, V: lo}, {Col: c.name, Op: Lt, V: round2(lo + 0.2 + 1.8*rng.Float64())}})
		out["threshold"] = append(out["threshold"], []Cond{threshold()})
		out["aids_threshold"] = append(out["aids_threshold"], []Cond{{Col: "aids", Op: Eq, S: "Y", Str: true}, threshold()})
	}
	return out
}

// spanSink keeps BenchmarkSpan's resolved spans live.
var spanSink int

// resolveSpans resolves every conjunct of p against d, as eval does
// before it writes a bit.
func resolveSpans(d *segData, p *plan) int {
	k := 0
	for i := range p.ivs {
		iv := &p.ivs[i]
		k += d.nums[iv.col].span(iv.lo, !iv.loIncl, iv.hi, !iv.hiIncl).k
	}
	for _, c := range p.rest {
		k += d.equalSpan(c).k
	}
	return k
}

// BenchmarkSpan times the search alone: resolving the spans of 64
// miss_1m-shaped queries of one shape on every segment of a 1M-row trial
// snapshot (122 segments), with no bit written. It reports µs/query.
func BenchmarkSpan(b *testing.B) {
	snap := benchSnapshot(b, 1_000_000)
	segs := make([]*segData, len(snap.segs))
	for i, sg := range snap.segs {
		segs[i] = sg.mustAcquire()
	}
	queries := spanQueries(20070923)
	for _, shape := range []string{"band", "threshold", "aids_threshold"} {
		var plans []*plan
		for _, q := range queries[shape] {
			cc, err := snap.compile(q)
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, planConds(cc))
		}
		b.Run(shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range plans {
					for _, d := range segs {
						spanSink += resolveSpans(d, p)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(plans)), "µs/query")
		})
	}
}
