// Command perfbench measures privacy3d's statistical database end to end:
// DP queries over the production HTTP stack, served in-process on a
// loopback listener to a closed loop of two analyst clients, on three
// workloads (see workloads.go and STEADINESS.md).
//
//	go run . --workload miss_1m --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays every traced request on an identically built twin server, times
// the calls into each layer, writes the spans as JSON lines, and prints the
// per-layer metrics. Either way the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. The run fails
// (exit 1) when an answer differs from the twin's or the workload stops
// being what it claims to be.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: miss_1m, hot_1m or spill_clustered")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the served rows, the ingested rows and the request streams")
	fs.IntVar(&o.seconds, "seconds", 45, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory: each run's datadirs go in a subdirectory it removes, a traced run's spans in spans-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	spans := filepath.Join(o.workdir, "spans-"+w.name+".jsonl")
	if n := runtime.NumCPU(); clients > n {
		fmt.Fprintf(stderr, "perfbench: %d clients need at least %d CPUs, have %d\n", clients, clients, n)
		return 1
	}
	base := o.workdir
	o.workdir = filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(w, o, spans, stderr)
	if rmErr := os.RemoveAll(o.workdir); rmErr != nil {
		fmt.Fprintln(stderr, "perfbench:", rmErr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s seed %d: %d requests attempted, %d failed\n", w.name, o.seed, res.Attempted, res.Failed)
	for _, k := range names {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters is a snapshot of the served process's own counters.
type counters struct {
	hits, misses        int64
	segEvals            int64
	tier                store.TierStats
	scratchGets, scNews int64
	spent               float64
	alloc, gcs          uint64
	// requests is how many requests the clients have sent; counters are
	// read between phases, when every sent request has been answered.
	requests int
}

func readCounters(m *served, cs []*client) counters {
	var k counters
	k.hits, k.misses, _, _ = m.srv.CacheStats()
	k.segEvals = m.st.SegmentEvals()
	k.tier = m.st.TierStats()
	k.scratchGets, k.scNews = m.st.ScratchStats()
	for _, c := range cs {
		rem, _ := m.srv.BudgetRemaining(c.principal)
		k.spent += budget - rem
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.alloc, k.gcs = ms.TotalAlloc, uint64(ms.NumGC)
	for _, c := range cs {
		k.requests += c.seq
	}
	return k
}

// guard fails a run whose measured phase stopped being its workload.
func guard(w *workload, before, after counters) error {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	ratio := ratio(float64(hits), float64(hits+misses))
	switch {
	case w.hits && ratio < 0.99:
		return fmt.Errorf("validity guard: answer-cache hit ratio %.4f < 0.99 (%d hits, %d misses)", ratio, hits, misses)
	case !w.hits && hits != 0:
		return fmt.Errorf("validity guard: %d answer-cache hits on a distinct-query workload", hits)
	case w.memCapDiv > 0 && after.tier.Spilled == 0:
		return errors.New("validity guard: no segment is spilled")
	}
	return nil
}

// execute runs one workload in o.workdir and, for a traced run, writes the
// spans to spansPath.
func execute(w *workload, o options, spansPath string, stderr io.Writer) (*result, error) {
	p, err := prepare(w, o.seed, o.workdir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer p.closeAll()
	version := p.main.srv.Version()
	var tw *served
	openTwin := func() error {
		if tw, err = p.twin(); err != nil {
			return err
		}
		if v := tw.srv.Version(); v != version {
			return fmt.Errorf("twin answers at snapshot version %d, served server at %d", v, version)
		}
		return nil
	}
	defer func() {
		if tw != nil {
			tw.close()
		}
	}()
	if o.trace {
		if err := openTwin(); err != nil {
			return nil, err
		}
	}
	ing, err := newIngester(p.ingest, o.seed)
	if err != nil {
		return nil, err
	}

	stk, err := startStack(p.main.srv)
	if err != nil {
		return nil, err
	}
	cs := newClients(w, o.seed, stk.url)
	epoch := time.Now()
	if o.trace {
		for _, c := range cs {
			c.tracer = &tracer{twin: tw, epoch: epoch}
		}
	}
	warm(cs, w.warmup)

	m := map[string]metric{}
	var layers map[string][]float64
	var spans []span
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	var tracers []*tracer
	for _, c := range cs {
		tracers = append(tracers, c.tracer)
		c.tracer = nil
	}
	// The end-to-end run spreads the ingest chunks over the measured phase;
	// the traced run keeps them out of its counter deltas and ingests after.
	rounds, chunks := w.ingestSegs, ing
	if o.trace {
		rounds, chunks = 1, nil
	}
	before := readCounters(p.main, cs)
	if err := phase(cs, d, rounds, chunks); err != nil {
		stk.stop()
		return nil, err
	}
	after := readCounters(p.main, cs)
	issued := float64(after.requests - before.requests)
	lats := latencies(cs)
	if len(lats) == 0 {
		stk.stop()
		return nil, errors.New("no request completed within the measured phase")
	}
	if err := guard(w, before, after); err != nil {
		stk.stop()
		return nil, err
	}
	if o.trace {
		for i, c := range cs {
			c.tracer = tracers[i]
			c.tracer.recording = true
		}
		measure(cs, 0, d)
		for _, c := range cs {
			spans = append(spans, c.tracer.spans...)
		}
		layers = spanLayers(spans)
		n := issued
		untraced := median(latSeconds(lats))
		traced := median(layers["http.rtt"])
		hitsN, missesN := float64(after.hits-before.hits), float64(after.misses-before.misses)
		pagerReads := float64(after.tier.PagerHits + after.tier.PagerMisses - before.tier.PagerHits - before.tier.PagerMisses)
		gets := float64(after.scratchGets - before.scratchGets)
		news := float64(after.scNews - before.scNews)
		add := func(name, unit string, v float64) { m[name] = metric{v, unit} }
		add("http.rtt_ms", "ms", 1e3*traced)
		add("http.self_ms", "ms", 1e3*median(layers["http.self"]))
		add("http.untraced_p50_ms", "ms", 1e3*untraced)
		add("http.trace_overhead", "ratio", traced/untraced)
		add("sdcquery.decode_us", "us", 1e6*median(layers["sdcquery.decode"]))
		add("sdcquery.ask_ms", "ms", 1e3*median(layers["sdcquery.ask"]))
		add("sdcquery.self_ms", "ms", 1e3*median(layers["sdcquery.self"]))
		add("sdcquery.cache_hit_ratio", "ratio", ratio(hitsN, hitsN+missesN))
		add("dp.epsilon_per_query", "epsilon", (after.spent-before.spent)/n)
		add("store.eval_ms", "ms", 1e3*median(layers["store.eval"]))
		add("store.aggregate_ms", "ms", 1e3*median(layers["store.aggregate"]))
		add("store.segments_per_query", "count", float64(after.segEvals-before.segEvals)/n)
		add("store.pager_reads_per_query", "count", pagerReads/n)
		add("store.pager_hit_ratio", "ratio", ratio(float64(after.tier.PagerHits-before.tier.PagerHits), pagerReads))
		add("store.pager_evictions_per_query", "count", float64(after.tier.PagerEvictions-before.tier.PagerEvictions)/n)
		add("store.resident_mb", "MiB", float64(after.tier.ResidentBytes)/(1<<20))
		add("store.pager_mb", "MiB", float64(after.tier.PagerBytes)/(1<<20))
		add("store.spilled_segments", "count", float64(after.tier.Spilled))
		add("store.scratch_hit_ratio", "ratio", ratio(gets-news, gets))
		add("runtime.alloc_kb_per_query", "KiB", float64(after.alloc-before.alloc)/1024/n)
		add("runtime.gc_per_kquery", "count", 1000*float64(after.gcs-before.gcs)/n)
	} else {
		rate, p50, p90 := windowed(lats, d)
		m["qps"] = metric{rate, "queries/s"}
		m["p50_ms"] = metric{1e3 * p50, "ms"}
		m["p90_ms"] = metric{1e3 * p90, "ms"}
		m["ingest_rows_s"] = metric{median(ing.rates), "rows/s"}
		// heap_mb is the measured server's: the ingest server goes first.
		ing = nil
		err := p.ingest.close()
		p.ingest = nil
		if err != nil {
			stk.stop()
			return nil, fmt.Errorf("close ingest store: %w", err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["heap_mb"] = metric{float64(ms.HeapInuse) / (1 << 20), "MiB"}
	}
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
	if err := stk.stop(); err != nil {
		return nil, fmt.Errorf("http server: %w", err)
	}

	if o.trace {
		for len(ing.seals) < w.ingestSegs {
			if err := ing.chunk(); err != nil {
				return nil, err
			}
		}
		m["store.append_us"] = metric{1e6 * median(ing.appends), "us"}
		m["store.seal_ms"] = metric{1e3 * median(ing.seals), "ms"}
	}
	err = p.main.close()
	p.main = nil
	if err != nil {
		return nil, fmt.Errorf("close served store: %w", err)
	}
	if err := p.late(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	if o.trace {
		m["sdcquery.new_server_s"] = metric{median(p.times.newServer), "s"}
		m["store.open_s"] = metric{0, "s"}
		if w.durable {
			m["store.open_s"] = metric{median(p.times.store), "s"}
		}
		m["store.build_s"] = metric{p.times.build, "s"}
	} else {
		m["setup_s"] = metric{median(p.times.total), "s"}
	}

	if tw == nil {
		if err := openTwin(); err != nil {
			return nil, err
		}
	}
	checked, bad, firstBad := checkSamples(tw, cs)
	res := &result{Metrics: m}
	for _, c := range cs {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: client %d: first failure: %v\n", w.name, c.id, c.firstErr)
		}
	}
	for _, t := range tracers {
		if t != nil {
			checked += t.checked
		}
	}
	res.Failed += int64(bad)
	if firstBad != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, firstBad)
	}
	res.Correct = res.Failed == 0 && checked > 0
	fmt.Fprintf(stderr, "perfbench: %s: oracle checked %d answers against the twin, %d mismatched; %d sealed segments\n",
		w.name, checked, bad, p.times.sealed)
	if o.trace {
		if err := writeSpans(spansPath, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "perfbench: %s: %d spans written to %s\n", w.name, len(spans), spansPath)
	}
	return res, nil
}

// phase runs a measured phase of d as rounds of closed-loop reads. After
// each round ing, when non-nil, ingests one segment's rows on its own
// server, so the ingest chunks are spread over the phase and meet the
// same stretch of machine time as the reads.
func phase(cs []*client, d time.Duration, rounds int, ing *ingester) error {
	for r := 0; r < rounds; r++ {
		lo := d * time.Duration(r) / time.Duration(rounds)
		hi := d * time.Duration(r+1) / time.Duration(rounds)
		measure(cs, lo, hi-lo)
		if ing != nil {
			if err := ing.chunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ingester feeds the ingest phase's rows through Server.Ingest, one call
// per row, a seal-to-seal chunk of one segment's rows at a time. Each
// chunk gives one throughput sample; each non-sealing and each sealing
// call one duration, in seconds.
//
// Each chunk's rows are generated just before it, untimed: a whole phase's
// rows kept live would add their string headers to every garbage
// collection the measured reads pay for.
type ingester struct {
	m       *served
	seed    uint64
	segSize int
	batches uint64

	rates, appends, seals []float64
}

// newIngester fills m's open tail, untimed, up to its first seal.
func newIngester(m *served, seed uint64) (*ingester, error) {
	g := &ingester{m: m, seed: seed ^ ingestSeedSalt, segSize: m.st.SegmentSize()}
	d, err := g.batch()
	if err != nil {
		return nil, err
	}
	vals := make([]any, d.Cols())
	for i := 0; m.srv.Rows()%g.segSize != 0; i++ {
		if err := m.srv.Ingest(rowValues(d, vals, i)...); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
	}
	return g, nil
}

// batch draws the next segment's worth of rows.
func (g *ingester) batch() (*dataset.Dataset, error) {
	g.batches++
	return dataset.Synth("trial", g.segSize, g.seed+g.batches)
}

// chunk ingests one segment's rows, from a seal to the next.
func (g *ingester) chunk() error {
	d, err := g.batch()
	if err != nil {
		return err
	}
	vals := make([]any, d.Cols())
	start := time.Now()
	for i := 0; i < d.Rows(); i++ {
		rowValues(d, vals, i)
		t0 := time.Now()
		if err := g.m.srv.Ingest(vals...); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		dt := time.Since(t0).Seconds()
		if i < d.Rows()-1 {
			g.appends = append(g.appends, dt)
		} else {
			g.seals = append(g.seals, dt)
		}
	}
	g.rates = append(g.rates, float64(d.Rows())/time.Since(start).Seconds())
	if r := g.m.srv.Rows(); r%g.segSize != 0 {
		return fmt.Errorf("ingest chunk ended at %d rows, not on a seal", r)
	}
	return nil
}

// rowValues fills vals with row i of d and returns it.
func rowValues(d *dataset.Dataset, vals []any, i int) []any {
	for j := range vals {
		vals[j] = d.Value(i, j)
	}
	return vals
}

// windowed cuts the measured phase into one-second windows and returns the
// median over the windows of each window's completion rate and of its
// 50th and 90th latency percentiles. A burst of CPU steal on the shared
// machine slows the windows it covers; the medians move only when it
// covers half the phase.
func windowed(lats []reqSample, d time.Duration) (rate, p50, p90 float64) {
	n := int(d / time.Second)
	if n < 1 {
		n = 1
	}
	ws := make([][]float64, n)
	for _, s := range lats {
		i := int(int64(s.end) * int64(n) / int64(d))
		if i >= n {
			i = n - 1
		}
		ws[i] = append(ws[i], s.lat.Seconds())
	}
	rates := make([]float64, n)
	p50s := make([]float64, 0, n)
	p90s := make([]float64, 0, n)
	for i, w := range ws {
		rates[i] = float64(len(w)) / (d.Seconds() / float64(n))
		if len(w) > 0 {
			p50s = append(p50s, percentile(w, 0.5))
			p90s = append(p90s, percentile(w, 0.9))
		}
	}
	return median(rates), median(p50s), median(p90s)
}

func latSeconds(lats []reqSample) []float64 {
	out := make([]float64, len(lats))
	for i, s := range lats {
		out[i] = s.lat.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the order statistics of xs. It
// is 0 for no samples: a layer the traced requests never called (the store
// on a cache hit) spent no time.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
