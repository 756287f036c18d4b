package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// storeWorkers is the store section's worker sweep: par.SetWorkers bounds
// the per-shard fan-out of both the indexed and the scan path.
var storeWorkers = []int{1, 2, 8}

// StoreEntry is one (rows, workers, workload, path) timed measurement.
type StoreEntry struct {
	Rows    int `json:"rows"`
	Workers int `json:"workers"`
	// Workload is "selective" (narrow bands, the index's home turf) or
	// "broad" (threshold sweeps that match large fractions of the data).
	Workload string `json:"workload"`
	// Path is "indexed" (Server.Ask with the answer cache disabled, so
	// every query pays full predicate evaluation), "scan"
	// (Snapshot.EvalScan + Sum: the compiled row-at-a-time baseline) or
	// "batched" (one AskBatch per call over the whole workload; its
	// latency percentiles are per call, not per query).
	Path       string  `json:"path"`
	Queries    int64   `json:"queries"`
	DurationNs int64   `json:"duration_ns"`
	QPS        float64 `json:"qps"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
}

// workload is one class of query shapes, each also lowered to store
// conditions for the scan path, with the scan's answers as the reference.
type workload struct {
	name  string
	qs    []sdcquery.Query
	conds [][]store.Cond
	want  [][3]uint64
}

// newWorkload lowers every query's predicate to store conditions
// (store.Op is ordinal-compatible with sdcquery.Op) and answers each by
// the scan for the reference.
func newWorkload(name string, qs []sdcquery.Query, snap *store.Snapshot) (*workload, error) {
	wl := &workload{name: name, qs: qs, conds: make([][]store.Cond, len(qs)), want: make([][3]uint64, len(qs))}
	for k, q := range qs {
		for _, c := range q.Where {
			wl.conds[k] = append(wl.conds[k], store.Cond{Col: c.Col, Op: store.Op(c.Op), V: c.V, S: c.S, Str: c.IsString()})
		}
		v, err := scanAnswer(snap, q, wl.conds[k])
		if err != nil {
			return nil, err
		}
		wl.want[k] = answerBits(sdcquery.Answer{Value: v})
	}
	return wl, nil
}

// compare checks answer k of one timed path against the scan reference.
func (wl *workload) compare(c *check, w int, path string, k int, a sdcquery.Answer) {
	c.seen++
	if answerBits(a) != wl.want[k] {
		c.fail("workers=%d %s/%s %q: %x, scan %x", w, wl.name, path, wl.qs[k], answerBits(a), wl.want[k])
	}
}

// answerBits collapses an answer to its released bits.
func answerBits(a sdcquery.Answer) [3]uint64 {
	return [3]uint64{math.Float64bits(a.Value), math.Float64bits(a.Lo), math.Float64bits(a.Hi)}
}

// scanAnswer is the scan path: the compiled row sweep and the aggregate's
// column sweep, called directly on the store. Both sweeps run in ascending
// row order, as the indexed path's do, so the two agree bit for bit.
func scanAnswer(snap *store.Snapshot, q sdcquery.Query, conds []store.Cond) (float64, error) {
	bm, err := snap.EvalScan(conds)
	if err != nil {
		return 0, fmt.Errorf("EvalScan(%q): %w", q, err)
	}
	switch q.Agg {
	case sdcquery.Count:
		return float64(bm.Count()), nil
	case sdcquery.Sum:
		return snap.Sum(bm, snap.Index(q.Attr)), nil
	default: // Avg: the broad workload builds no empty AVG set
		return snap.Sum(bm, snap.Index(q.Attr)) / float64(bm.Count()), nil
	}
}

// storeSection compares the statistical server's indexed path with the
// compiled row scan on synthetic trial data at every row count and worker
// count. At the largest row count the indexed path must reach minSpeedup
// times the scan's QPS on selective predicates at every worker count, and
// minScaling times its own workers=1 QPS at the largest worker count.
func storeSection(r *Report, sz sizes) error {
	for _, rows := range sz.storeRows {
		if err := r.storeRows(sz, rows); err != nil {
			return fmt.Errorf("store rows=%d: %w", rows, err)
		}
	}
	largest := sz.storeRows[len(sz.storeRows)-1]
	baseW, maxW := storeWorkers[0], storeWorkers[len(storeWorkers)-1]
	var qps [2]float64
	for _, e := range r.Store {
		if e.Rows == largest && e.Workload == "selective" && e.Path == "indexed" {
			switch e.Workers {
			case baseW:
				qps[0] = e.QPS
			case maxW:
				qps[1] = e.QPS
			}
		}
	}
	r.ratioGate(fmt.Sprintf("store rows=%d: selective indexed QPS, workers=%d vs workers=%d", largest, maxW, baseW),
		qps[1]/qps[0], minScaling, r.NumCPU > 1, fmt.Sprintf("%.0f vs %.0f q/s", qps[1], qps[0]))
	return nil
}

// storeRows times one row count: the indexed and scan paths on both
// workloads and the batched path on the selective one, at every worker
// count, checking every timed answer against the scan reference.
func (r *Report) storeRows(sz sizes, rows int) error {
	d, err := dataset.Synth("trial", rows, r.Seed)
	if err != nil {
		return err
	}
	srv, err := sdcquery.NewServer(d, sdcquery.Config{Protection: sdcquery.NoProtection, AnswerCacheCap: -1})
	if err != nil {
		return err
	}
	defer srv.Close()
	st, err := store.FromDataset(d, 0)
	if err != nil {
		return err
	}
	snap := st.Snapshot()
	spans := numericSpans(d)
	sel, err := newWorkload("selective", selectiveWorkload(spans, sz.shapes), snap)
	if err != nil {
		return err
	}
	broad, err := newWorkload("broad", broadWorkload(spans, sz.shapes), snap)
	if err != nil {
		return err
	}
	c := &check{name: fmt.Sprintf("store rows=%d: every indexed, batched and scan answer ≡ the scan reference", rows)}
	gated := rows == sz.storeRows[len(sz.storeRows)-1]
	err = sweep(storeWorkers, func(w int) error {
		for _, wl := range []*workload{sel, broad} {
			indexed, err := r.timed(StoreEntry{Rows: rows, Workers: w, Workload: wl.name, Path: "indexed"}, len(wl.qs), 1, 8, sz.window, func(k int) error {
				a, err := srv.Ask(wl.qs[k])
				if err != nil {
					return err
				}
				wl.compare(c, w, "indexed", k, a)
				return nil
			})
			if err != nil {
				return err
			}
			scan, err := r.timed(StoreEntry{Rows: rows, Workers: w, Workload: wl.name, Path: "scan"}, len(wl.qs), 1, 8, sz.window, func(k int) error {
				v, err := scanAnswer(snap, wl.qs[k], wl.conds[k])
				if err != nil {
					return err
				}
				wl.compare(c, w, "scan", k, sdcquery.Answer{Value: v})
				return nil
			})
			if err != nil {
				return err
			}
			if gated && wl == sel {
				r.ratioGate(fmt.Sprintf("store rows=%d workers=%d: selective indexed vs scan QPS", rows, w),
					indexed/scan, minSpeedup, true, fmt.Sprintf("%.0f vs %.0f q/s", indexed, scan))
			}
		}
		_, err := r.timed(StoreEntry{Rows: rows, Workers: w, Workload: sel.name, Path: "batched"}, 1, len(sel.qs), 1, sz.window, func(int) error {
			answers, errs := srv.AskBatch("", sel.qs)
			for k, a := range answers {
				sel.compare(c, w, "batched", k, a)
			}
			return errors.Join(errs...)
		})
		return err
	})
	if err != nil {
		return err
	}
	r.addCheck(c)
	return nil
}

// timed calls ask round-robin over the n workload slots for at least the
// window and at least minCalls calls, records e with each call's latency,
// and returns its QPS. Each call answers perCall queries: QPS counts
// queries, the latency percentiles are per call.
func (r *Report) timed(e StoreEntry, n, perCall, minCalls int, window time.Duration, ask func(k int) error) (float64, error) {
	var lat []int64
	start := time.Now()
	for calls := 0; time.Since(start) < window || calls < minCalls; calls++ {
		t0 := time.Now()
		if err := ask(calls % n); err != nil {
			return 0, fmt.Errorf("%s/%s: %w", e.Workload, e.Path, err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	elapsed := time.Since(start)
	slices.Sort(lat)
	e.Queries = int64(len(lat) * perCall)
	e.DurationNs = elapsed.Nanoseconds()
	e.QPS = float64(e.Queries) / elapsed.Seconds()
	e.P50Ns, e.P99Ns = pct(lat, 0.50), pct(lat, 0.99)
	r.Store = append(r.Store, e)
	log.Printf("store    rows=%-8d workers=%-2d %-9s %-7s %10.0f q/s  p50 %9s  p99 %9s",
		e.Rows, e.Workers, e.Workload, e.Path, e.QPS, time.Duration(e.P50Ns), time.Duration(e.P99Ns))
	return e.QPS, nil
}

// span is a numeric column's observed value range.
type span struct {
	col    string
	lo, hi float64
}

func numericSpans(d *dataset.Dataset) []span {
	var spans []span
	for j := 0; j < d.Cols(); j++ {
		if a := d.Attr(j); a.Kind == dataset.Numeric {
			lo, hi := columnRange(d, j)
			spans = append(spans, span{a.Name, lo, hi})
		}
	}
	return spans
}

// selectiveWorkload builds narrow-band conjunctions — col ∈ [v, v+δ) with δ
// a fraction of the column's range, every third shape additionally pinned to
// the rare categorical value — the shapes where a sorted index turns a full
// sweep into two binary searches. COUNT and SUM only: a band in a sparse
// tail may legitimately match nothing, which AVG would reject.
func selectiveWorkload(spans []span, n int) []sdcquery.Query {
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
func broadWorkload(spans []span, n int) []sdcquery.Query {
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
