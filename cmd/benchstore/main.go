// Command benchstore is the perf gate of the columnar segment store: it
// measures cache-miss query throughput of the indexed path (zone maps +
// dictionary-coded per-segment indexes + bitmap intersection, through a
// cache-disabled sdcquery.Server) against the compiled row-scan baseline
// (store.Snapshot.EvalScan + Sum, called directly on a store.FromDataset
// copy of the same data) on synthetic clinical-trial data, and hard-fails
// unless
//
//  1. every indexed answer is byte-identical to the seed evaluator
//     Query.Evaluate, and every Snapshot.Eval bitmap word-identical to the
//     EvalScan bitmap of the same conditions (identity gate),
//
//  2. one AskBatch over the selective workload answers byte-identically to
//     the per-query references at every worker count (batch identity gate),
//
//  3. the indexed path sustains at least -minspeedup× the scan path's QPS
//     on selective predicates at the largest row count (speedup gate),
//
//  4. a snapshot pinned before a burst of concurrent ingest keeps returning
//     bit-identical counts and sums while the store grows underneath it —
//     the property the query auditor's view depends on (snapshot gate), and
//
//  5. a durable copy answers byte-identically after a cold reopen, also
//     with most segments spilled (persist gate).
//
//     benchstore -rows 100000,1000000 -workers 1,2,8 -out BENCH_store.json
//
// Workers sweeps par.SetWorkers, which bounds the per-shard fan-out of both
// paths. Exits non-zero if any gate fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/par"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// Entry is one (rows, workers, workload, path) timed measurement.
type Entry struct {
	Rows    int `json:"rows"`
	Workers int `json:"workers"`
	// Workload is "selective" (narrow bands, the index's home turf) or
	// "broad" (threshold sweeps that match large fractions of the data).
	Workload string `json:"workload"`
	// Path is "indexed" (Server.Ask: segment indexes + bitmaps), "scan"
	// (Snapshot.EvalScan + Sum: the compiled row-at-a-time baseline), or
	// "batched" (AskBatch answering the whole workload in one sharded
	// column sweep; latency percentiles are then per batch call, not per
	// query).
	Path string `json:"path"`
	// Queries answered during the timed window (cache disabled: every one
	// paid full predicate evaluation).
	Queries    int64   `json:"queries"`
	DurationNs int64   `json:"duration_ns"`
	QPS        float64 `json:"qps"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
}

// Speedup is the headline gate record: indexed vs. scan cache-miss QPS on
// the selective workload, per (rows, workers).
type Speedup struct {
	Rows       int     `json:"rows"`
	Workers    int     `json:"workers"`
	IndexedQPS float64 `json:"indexed_qps"`
	ScanQPS    float64 `json:"scan_qps"`
	Speedup    float64 `json:"speedup"`
	// Gated marks the points under the -minspeedup requirement (the
	// largest row count, where indexing matters most).
	Gated bool `json:"gated"`
}

// ScalingGate records the worker-scaling requirement on the indexed path:
// on a multi-core machine, QPS at the largest worker count must beat QPS at
// the smallest by at least -minscaling× at the largest row count. On a
// single-CPU machine the gate degrades to the report warning.
type ScalingGate struct {
	Rows        int     `json:"rows"`
	BaseWorkers int     `json:"base_workers"`
	MaxWorkers  int     `json:"max_workers"`
	BaseQPS     float64 `json:"base_qps"`
	MaxQPS      float64 `json:"max_qps"`
	Scaling     float64 `json:"scaling"`
	MinScaling  float64 `json:"min_scaling"`
	Enforced    bool    `json:"enforced"`
}

// SnapshotGate records the concurrent-ingest pinning check.
type SnapshotGate struct {
	Rows     int  `json:"rows"`
	Ingested int  `json:"ingested"`
	Reevals  int  `json:"reevals"`
	Stable   bool `json:"stable"`
}

// PersistGate records the tiered-storage check: the dataset is ingested
// into a data directory, the store closed, then reopened cold twice — once
// uncapped and once with a resident-byte cap well below the dataset's
// decoded footprint, so most answers decode segments read back from disk.
// Both reopens must answer the selective workload byte-identically to the
// resident store.
type PersistGate struct {
	Rows          int   `json:"rows"`
	Queries       int   `json:"queries"`
	ResidentBytes int64 `json:"resident_bytes"`
	MemCap        int64 `json:"mem_cap"`
	SpilledSegs   int   `json:"spilled_segments"`
	SpilledReads  int64 `json:"spilled_reads"`
	Identical     bool  `json:"identical"`
}

// Report is the BENCH_store.json document.
type Report struct {
	Date            string  `json:"date"`
	RowSizes        []int   `json:"row_sizes"`
	Workers         []int   `json:"workers"`
	SelectiveShapes int     `json:"selective_shapes"`
	BroadShapes     int     `json:"broad_shapes"`
	Seed            uint64  `json:"seed"`
	MinSpeedup      float64 `json:"min_speedup"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"num_cpu"`
	// Shards is the store's segment-shard count; BatchWidth the number of
	// queries each timed AskBatch call carries on the "batched" path.
	Shards     int `json:"shards"`
	BatchWidth int `json:"batch_width"`
	// Warning flags measurement conditions under which worker scaling is
	// not meaningful (e.g. a single-CPU machine).
	Warning string `json:"warning,omitempty"`
	// IdenticalAnswers records the identity gate's verdict: for every shape
	// at every row count, indexed ≡ Query.Evaluate bit for bit, and Eval ≡
	// EvalScan word for word. Always true — the tool exits non-zero
	// otherwise.
	IdenticalAnswers bool          `json:"identical_answers"`
	Entries          []Entry       `json:"entries"`
	Speedups         []Speedup     `json:"speedups"`
	Scaling          *ScalingGate  `json:"scaling,omitempty"`
	Snapshot         *SnapshotGate `json:"snapshot"`
	Persist          *PersistGate  `json:"persist"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchstore: ")
	rowsList := flag.String("rows", "100000,1000000", "comma-separated synthetic dataset sizes; the speedup gate applies at the largest")
	workersList := flag.String("workers", "1,2,8", "comma-separated par.SetWorkers values")
	shapes := flag.Int("queries", 24, "query shapes per workload class")
	duration := flag.Duration("duration", 500*time.Millisecond, "timed window per (rows, workers, workload, path) point")
	minSpeedup := flag.Float64("minspeedup", 5, "required indexed/scan QPS ratio on selective predicates at the largest row count")
	minScaling := flag.Float64("minscaling", 2, "required indexed QPS at max workers vs workers=1 at the largest row count (skipped on single-CPU machines)")
	ingest := flag.Int("ingest", 25000, "rows appended concurrently during the snapshot gate")
	seed := flag.Uint64("seed", 20070923, "PRNG seed for the synthetic data")
	out := flag.String("out", "BENCH_store.json", "output JSON file")
	flag.Parse()
	if err := run(*rowsList, *workersList, *shapes, *duration, *minSpeedup, *minScaling, *ingest, *seed, *out); err != nil {
		log.Fatal(err)
	}
}

func parseInts(flagName, s string) ([]int, error) {
	var vs []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, f)
		}
		vs = append(vs, v)
	}
	if len(vs) == 0 {
		return nil, fmt.Errorf("%s must list at least one value", flagName)
	}
	return vs, nil
}

// cpuWarning returns the single-CPU caveat, or "" on multi-core machines.
func cpuWarning() string {
	if runtime.NumCPU() > 1 {
		return ""
	}
	return "single-CPU machine: worker scaling measures scheduling overhead, not parallelism"
}

// answerBits collapses an answer to the released bits for the identity gate.
func answerBits(a sdcquery.Answer) [3]uint64 {
	return [3]uint64{math.Float64bits(a.Value), math.Float64bits(a.Lo), math.Float64bits(a.Hi)}
}

// span is a numeric column's observed value range.
type span struct {
	col    string
	lo, hi float64
}

func numericSpans(d *dataset.Dataset) []span {
	var spans []span
	for j := 0; j < d.Cols(); j++ {
		a := d.Attr(j)
		if a.Kind != dataset.Numeric {
			continue
		}
		lo, hi := d.Float(0, j), d.Float(0, j)
		for i := 1; i < d.Rows(); i++ {
			v := d.Float(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		spans = append(spans, span{a.Name, lo, hi})
	}
	return spans
}

// workload is one class of query shapes, each also lowered to store
// conditions for the scan baseline.
type workload struct {
	name  string
	qs    []sdcquery.Query
	conds [][]store.Cond
}

// newWorkload lowers every query's predicate to store conditions
// (store.Op is ordinal-compatible with sdcquery.Op).
func newWorkload(name string, qs []sdcquery.Query) workload {
	w := workload{name: name, qs: qs, conds: make([][]store.Cond, len(qs))}
	for k, q := range qs {
		for _, c := range q.Where {
			w.conds[k] = append(w.conds[k], store.Cond{Col: c.Col, Op: store.Op(c.Op), V: c.V, S: c.S, Str: c.IsString()})
		}
	}
	return w
}

// selectiveWorkload builds narrow-band conjunctions — col ∈ [v, v+δ) with δ
// a fraction of the column's range, every third shape additionally pinned to
// the rare categorical value — the shapes where a sorted index turns a full
// sweep into two binary searches. COUNT and SUM only: a band in a sparse
// tail may legitimately match nothing, which AVG would reject.
func selectiveWorkload(d *dataset.Dataset, spans []span, n int) []sdcquery.Query {
	work := make([]sdcquery.Query, 0, n)
	for i := 0; i < n; i++ {
		sp := spans[i%len(spans)]
		pos := 0.25 + 0.5*float64(i/len(spans)%13)/13 // central band: bands land where data lives
		v := sp.lo + (sp.hi-sp.lo)*pos
		delta := (sp.hi - sp.lo) * 0.002
		where := sdcquery.Predicate{
			{Col: sp.col, Op: sdcquery.Ge, V: v},
			{Col: sp.col, Op: sdcquery.Lt, V: v + delta},
		}
		if i%3 == 0 {
			where = append(where, sdcquery.Cond{Col: "aids", Op: sdcquery.Eq, S: "Y", Str: true})
		}
		q := sdcquery.Query{Agg: sdcquery.Count, Where: where}
		if i%2 == 1 {
			q = sdcquery.Query{Agg: sdcquery.Sum, Attr: "blood_pressure", Where: where}
		}
		work = append(work, q)
	}
	return work
}

// broadWorkload sweeps COUNT/SUM/AVG thresholds across each numeric
// column's range, built so no AVG query set is empty (Lt above the minimum,
// Ge below the maximum) — the shapes where the index degrades to a full
// range and must still not lose to the scan by more than bookkeeping.
func broadWorkload(d *dataset.Dataset, spans []span, n int) []sdcquery.Query {
	aggs := []sdcquery.Agg{sdcquery.Count, sdcquery.Sum, sdcquery.Avg}
	work := make([]sdcquery.Query, 0, n)
	for i := 0; i < n; i++ {
		sp := spans[i%len(spans)]
		frac := float64(i/len(spans)%97+1) / 99
		q := sdcquery.Query{Agg: aggs[i%len(aggs)], Attr: sp.col}
		if i%2 == 0 {
			q.Where = sdcquery.Predicate{{Col: sp.col, Op: sdcquery.Lt, V: sp.lo + (sp.hi-sp.lo)*frac + 1e-9}}
		} else {
			q.Where = sdcquery.Predicate{{Col: sp.col, Op: sdcquery.Ge, V: sp.hi - (sp.hi-sp.lo)*frac - 1e-9}}
		}
		work = append(work, q)
	}
	return work
}

func run(rowsList, workersList string, shapes int, duration time.Duration, minSpeedup, minScaling float64, ingest int, seed uint64, out string) error {
	sizes, err := parseInts("-rows", rowsList)
	if err != nil {
		return err
	}
	workers, err := parseInts("-workers", workersList)
	if err != nil {
		return err
	}
	if shapes < 1 || duration <= 0 || ingest < 1 {
		return fmt.Errorf("-queries, -duration and -ingest must all be positive")
	}
	largest := sizes[0]
	for _, r := range sizes {
		if r > largest {
			largest = r
		}
	}

	report := Report{
		Date:     time.Now().UTC().Format(time.RFC3339),
		RowSizes: sizes, Workers: workers,
		SelectiveShapes: shapes, BroadShapes: shapes,
		Seed: seed, MinSpeedup: minSpeedup,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Warning:          cpuWarning(),
		IdenticalAnswers: true,
	}
	if report.Warning != "" {
		log.Printf("WARNING: %s", report.Warning)
	}

	for _, rows := range sizes {
		d, err := dataset.Synth("trial", rows, seed)
		if err != nil {
			return err
		}
		spans := numericSpans(d)
		workloads := []workload{
			newWorkload("selective", selectiveWorkload(d, spans, shapes)),
			newWorkload("broad", broadWorkload(d, spans, shapes)),
		}

		// The server runs cache-disabled so every answer below is a miss.
		indexed, err := sdcquery.NewServer(d, sdcquery.Config{Protection: sdcquery.NoProtection, AnswerCacheCap: -1})
		if err != nil {
			return err
		}
		scanSt, err := store.FromDataset(d, 0)
		if err != nil {
			return err
		}
		scanSnap := scanSt.Snapshot()

		// Identity gate: indexed ≡ the seed evaluator, bit for bit, and the
		// store's Eval ≡ EvalScan, word for word, on every shape of both
		// workloads. The selective refs are kept so the batched gate below
		// can re-check them at every worker count without re-running the
		// O(rows) seed evaluator.
		selRefs := make([][3]uint64, 0, shapes)
		for _, w := range workloads {
			for k, q := range w.qs {
				want, err := q.Evaluate(d)
				if err != nil {
					return fmt.Errorf("rows=%d %s: Evaluate(%q): %w", rows, w.name, q, err)
				}
				ai, err := indexed.Ask(q)
				if err != nil {
					return fmt.Errorf("rows=%d %s: indexed Ask(%q): %w", rows, w.name, q, err)
				}
				ref := [3]uint64{math.Float64bits(want), 0, 0}
				if answerBits(ai) != ref {
					return fmt.Errorf("IDENTITY GATE FAILED: rows=%d %q: indexed %x, Evaluate %x",
						rows, q, answerBits(ai), ref)
				}
				bi, err := scanSnap.Eval(w.conds[k])
				if err != nil {
					return fmt.Errorf("rows=%d %s: Eval(%q): %w", rows, w.name, q, err)
				}
				bs, err := scanSnap.EvalScan(w.conds[k])
				if err != nil {
					return fmt.Errorf("rows=%d %s: EvalScan(%q): %w", rows, w.name, q, err)
				}
				if !slices.Equal(bi.Words(), bs.Words()) {
					return fmt.Errorf("IDENTITY GATE FAILED: rows=%d %q: Eval selects %d rows, EvalScan %d, or different ones",
						rows, q, bi.Count(), bs.Count())
				}
				if w.name == "selective" {
					selRefs = append(selRefs, ref)
				}
			}
		}
		log.Printf("rows=%-8d identity OK: %d shapes, indexed ≡ Evaluate, Eval ≡ EvalScan", rows, 2*shapes)
		report.Shards = indexed.Shards()
		report.BatchWidth = shapes

		// Timed phase: cache-miss QPS and latency percentiles per
		// (workers, workload, path).
		sel := workloads[0].qs
		for _, w := range workers {
			par.SetWorkers(w)
			// Batched identity gate at this worker count: one AskBatch must
			// answer the whole selective set bit-identically to the per-query
			// refs.
			answers, errs := indexed.AskBatch("", sel)
			for i, q := range sel {
				if errs[i] != nil {
					return fmt.Errorf("rows=%d workers=%d AskBatch(%q): %w", rows, w, q, errs[i])
				}
				if answerBits(answers[i]) != selRefs[i] {
					return fmt.Errorf("BATCH IDENTITY GATE FAILED: rows=%d workers=%d %q: batch %x, per-query %x",
						rows, w, q, answerBits(answers[i]), selRefs[i])
				}
			}
			for _, wl := range workloads {
				var qps [2]float64
				for pi, p := range []struct {
					name string
					ask  func(k int) error
				}{
					{"indexed", func(k int) error {
						_, err := indexed.Ask(wl.qs[k])
						return err
					}},
					{"scan", func(k int) error { return scanQuery(scanSnap, wl.qs[k], wl.conds[k]) }},
				} {
					e, err := timedPhase(rows, w, wl.name, p.name, len(wl.qs), 1, 8, duration, p.ask)
					if err != nil {
						return err
					}
					qps[pi] = e.QPS
					report.Entries = append(report.Entries, *e)
					logEntry(e)
				}
				if wl.name == "selective" {
					sp := Speedup{
						Rows: rows, Workers: w,
						IndexedQPS: qps[0], ScanQPS: qps[1],
						Speedup: qps[0] / qps[1],
						Gated:   rows == largest,
					}
					report.Speedups = append(report.Speedups, sp)
					if sp.Gated && sp.Speedup < minSpeedup {
						return fmt.Errorf("SPEEDUP GATE FAILED: rows=%d workers=%d selective: indexed %.0f q/s vs scan %.0f q/s = %.1f×, need ≥ %.1f×",
							rows, w, sp.IndexedQPS, sp.ScanQPS, sp.Speedup, minSpeedup)
					}
				}
			}
			// Batched path: the same selective queries, answered one
			// AskBatch at a time instead of one Ask at a time.
			e, err := timedPhase(rows, w, "selective", "batched", 1, len(sel), 1, duration, func(int) error {
				_, errs := indexed.AskBatch("", sel)
				return errors.Join(errs...)
			})
			if err != nil {
				return err
			}
			report.Entries = append(report.Entries, *e)
			logEntry(e)
		}

		// Snapshot gate once, at the smallest row count (the property is
		// size-independent; the big sizes would only slow the gate down).
		if rows == sizes[0] {
			sg, err := snapshotGate(d, ingest, 64)
			if err != nil {
				return err
			}
			report.Snapshot = sg
			log.Printf("rows=%-8d snapshot OK: %d re-evals bit-stable while %d rows ingested concurrently",
				rows, sg.Reevals, sg.Ingested)

			// Persistence gate, same size rationale: byte-identity across a
			// close/reopen cycle and across the spilled tier does not depend
			// on row count.
			pg, err := persistGate(d, workloads[0].qs, selRefs)
			if err != nil {
				return err
			}
			report.Persist = pg
			log.Printf("rows=%-8d persist OK: cold reopen byte-identical on %d queries; memcap %d of %d bytes kept %d segments spilled (%d spilled reads)",
				rows, pg.Queries, pg.MemCap, pg.ResidentBytes, pg.SpilledSegs, pg.SpilledReads)
		}
	}

	// Scaling gate: indexed QPS at the largest worker count vs. the smallest,
	// at the largest row count. Enforced only on multi-core machines — on a
	// single CPU, worker fan-out measures scheduling overhead, so the gate
	// degrades to the warning already in the report.
	if sg := scalingGate(report.Speedups, workers, largest, minScaling); sg != nil {
		report.Scaling = sg
		switch {
		case !sg.Enforced:
			log.Printf("scaling gate skipped (%s): workers=%d %.0f q/s vs workers=%d %.0f q/s",
				report.Warning, sg.MaxWorkers, sg.MaxQPS, sg.BaseWorkers, sg.BaseQPS)
		case sg.Scaling < minScaling:
			return fmt.Errorf("SCALING GATE FAILED: rows=%d indexed: workers=%d %.0f q/s vs workers=%d %.0f q/s = %.2f×, need ≥ %.1f×",
				sg.Rows, sg.MaxWorkers, sg.MaxQPS, sg.BaseWorkers, sg.BaseQPS, sg.Scaling, minScaling)
		default:
			log.Printf("rows=%-8d scaling OK: workers=%d %.0f q/s vs workers=%d %.0f q/s = %.2f× (need ≥ %.1f×)",
				sg.Rows, sg.MaxWorkers, sg.MaxQPS, sg.BaseWorkers, sg.BaseQPS, sg.Scaling, minScaling)
		}
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d entries); every indexed answer byte-identical to the seed evaluator, every indexed bitmap to the scan's", out, len(report.Entries))
	return nil
}

// scalingGate reduces the selective Speedup records at the largest row count
// to a base-vs-max-workers comparison. Returns nil when the workers sweep has
// a single point, so there is nothing to compare.
func scalingGate(speedups []Speedup, workers []int, largest int, minScaling float64) *ScalingGate {
	base, max := workers[0], workers[0]
	for _, w := range workers {
		if w < base {
			base = w
		}
		if w > max {
			max = w
		}
	}
	if base == max {
		return nil
	}
	sg := &ScalingGate{
		Rows: largest, BaseWorkers: base, MaxWorkers: max,
		MinScaling: minScaling,
		Enforced:   runtime.NumCPU() > 1,
	}
	for _, sp := range speedups {
		if sp.Rows != largest {
			continue
		}
		if sp.Workers == base {
			sg.BaseQPS = sp.IndexedQPS
		}
		if sp.Workers == max {
			sg.MaxQPS = sp.IndexedQPS
		}
	}
	if sg.BaseQPS > 0 {
		sg.Scaling = sg.MaxQPS / sg.BaseQPS
	}
	return sg
}

// timedPhase calls ask round-robin over the n workload slots for at least
// the duration and at least minCalls calls, recording each call's latency.
// Each call answers perCall queries: QPS counts queries, the latency
// percentiles are per call.
func timedPhase(rows, workers int, workload, path string, n, perCall, minCalls int, duration time.Duration, ask func(k int) error) (*Entry, error) {
	var lat []int64
	start := time.Now()
	for calls := 0; time.Since(start) < duration || calls < minCalls; calls++ {
		t0 := time.Now()
		if err := ask(calls % n); err != nil {
			return nil, fmt.Errorf("rows=%d %s/%s: %w", rows, workload, path, err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	elapsed := time.Since(start)
	slices.Sort(lat)
	pct := func(p float64) int64 { return lat[int(p*float64(len(lat)-1))] }
	queries := int64(len(lat) * perCall)
	return &Entry{
		Rows: rows, Workers: workers, Workload: workload, Path: path,
		Queries: queries, DurationNs: elapsed.Nanoseconds(),
		QPS:   float64(queries) / elapsed.Seconds(),
		P50Ns: pct(0.50), P99Ns: pct(0.99),
	}, nil
}

func logEntry(e *Entry) {
	log.Printf("rows=%-8d workers=%-2d %-9s %-7s %10.0f q/s  p50 %9s  p99 %9s",
		e.Rows, e.Workers, e.Workload, e.Path, e.QPS, time.Duration(e.P50Ns), time.Duration(e.P99Ns))
}

// scanQuery is the scan side of the speedup gate: the compiled row sweep
// and the aggregate's column sweep, called directly on the store.
func scanQuery(snap *store.Snapshot, q sdcquery.Query, conds []store.Cond) error {
	bm, err := snap.EvalScan(conds)
	if err != nil {
		return fmt.Errorf("EvalScan(%q): %w", q, err)
	}
	if q.Agg != sdcquery.Count {
		snap.Sum(bm, snap.Index(q.Attr))
	}
	return nil
}

// snapshotGate pins a snapshot, then keeps re-evaluating a predicate and a
// confidential-attribute sum against it while another goroutine appends
// rows. Every re-evaluation must return the same count and the bit-identical
// sum — the view an in-flight audit holds must not move — and afterwards a
// fresh snapshot must see every ingested row.
func snapshotGate(d *dataset.Dataset, ingest, reevals int) (*SnapshotGate, error) {
	st, err := store.FromDataset(d, 0)
	if err != nil {
		return nil, err
	}
	snap := st.Snapshot()
	wcol := numericSpans(d)[1] // weight
	conds := []store.Cond{{Col: wcol.col, Op: store.Ge, V: wcol.lo + (wcol.hi-wcol.lo)*0.5}}
	bp := snap.Index("blood_pressure")
	bm, err := snap.Eval(conds)
	if err != nil {
		return nil, err
	}
	refCount, refSum := bm.Count(), math.Float64bits(snap.Sum(bm, bp))

	attrs := d.Attrs()
	done := make(chan error, 1)
	go func() {
		vals := make([]any, len(attrs))
		for i := 0; i < ingest; i++ {
			src := i % d.Rows()
			for j, a := range attrs {
				if a.Kind == dataset.Numeric {
					vals[j] = d.Float(src, j)
				} else {
					vals[j] = d.Cat(src, j)
				}
			}
			if err := st.Append(vals...); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < reevals; i++ {
		bm, err := snap.Eval(conds)
		if err != nil {
			return nil, err
		}
		if c, s := bm.Count(), math.Float64bits(snap.Sum(bm, bp)); c != refCount || s != refSum {
			return nil, fmt.Errorf("SNAPSHOT GATE FAILED: pinned view drifted under ingest: count %d→%d, sum bits %x→%x", refCount, c, refSum, s)
		}
	}
	if err := <-done; err != nil {
		return nil, err
	}
	if got, want := st.Rows(), d.Rows()+ingest; got != want {
		return nil, fmt.Errorf("SNAPSHOT GATE FAILED: store has %d rows after ingest, want %d", got, want)
	}
	if snap.Rows() != d.Rows() {
		return nil, fmt.Errorf("SNAPSHOT GATE FAILED: pinned snapshot grew to %d rows", snap.Rows())
	}
	return &SnapshotGate{Rows: d.Rows(), Ingested: ingest, Reevals: reevals, Stable: true}, nil
}

// persistGate ingests d into a temporary data directory, closes the store,
// and reopens it cold twice: first uncapped, then with a resident-byte cap
// at a quarter of the decoded footprint so most segments answer from the
// disk tier. Every answer in both runs must match refs — the bit patterns
// the resident identity gate already certified against the seed evaluator.
func persistGate(d *dataset.Dataset, qs []sdcquery.Query, refs [][3]uint64) (*PersistGate, error) {
	dir, err := os.MkdirTemp("", "benchstore-persist-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	st, err := store.CreateFromDataset(dir, d, store.Options{})
	if err != nil {
		return nil, err
	}
	residentBytes := st.TierStats().ResidentBytes
	if err := st.Close(); err != nil {
		return nil, err
	}

	askAll := func(st *store.Store, label string) error {
		srv, err := sdcquery.NewServerFromStore(st, sdcquery.Config{Protection: sdcquery.NoProtection, AnswerCacheCap: -1})
		if err != nil {
			st.Close()
			return err
		}
		for i, q := range qs {
			a, err := srv.Ask(q)
			if err != nil {
				srv.Close()
				return fmt.Errorf("%s: Ask(%q): %w", label, q, err)
			}
			if answerBits(a) != refs[i] {
				srv.Close()
				return fmt.Errorf("PERSIST GATE FAILED: %s: %q answered %x, resident store %x",
					label, q, answerBits(a), refs[i])
			}
		}
		return nil
	}

	// Cold reopen, everything promotable: recovery must serve the exact
	// sealed state the ingest committed.
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("persist gate: reopen: %w", err)
	}
	if err := askAll(st, "cold open"); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Spill run: the cap keeps most of the dataset on disk, so answers read
	// segments decoded from their files; they must still be bit-identical.
	memCap := residentBytes / 4
	if memCap < 1 {
		memCap = 1 // a cap below one segment still admits one at a time
	}
	st, err = store.Open(dir, store.Options{MemCap: memCap})
	if err != nil {
		return nil, fmt.Errorf("persist gate: capped reopen: %w", err)
	}
	if err := askAll(st, fmt.Sprintf("memcap %d", memCap)); err != nil {
		return nil, err
	}
	ts := st.TierStats()
	if err := st.Close(); err != nil {
		return nil, err
	}
	if ts.Spilled == 0 {
		return nil, fmt.Errorf("PERSIST GATE FAILED: memcap %d of %d bytes left no segment spilled", memCap, residentBytes)
	}
	return &PersistGate{
		Rows: d.Rows(), Queries: len(qs),
		ResidentBytes: residentBytes, MemCap: memCap,
		SpilledSegs: ts.Spilled, SpilledReads: ts.PagerMisses,
		Identical: true,
	}, nil
}
