package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdcquery"
)

// workload is one traffic mix against one served dataset. Every field is
// fixed per workload; only --seed and --seconds vary between runs.
type workload struct {
	name string
	rows int
	// durable serves from a datadir reopened with store.Open (the
	// `serve -datadir` restart path); otherwise the store is built in
	// memory from the dataset (the `serve -in` path).
	durable bool
	// clustered stores the rows in ascending height order.
	clustered bool
	// memCapDiv > 0 reopens with MemCap = decoded footprint / memCapDiv.
	memCapDiv int64
	// hits: the measured requests are answer-cache hits (ratio >= 0.99);
	// otherwise every one must miss.
	hits bool
	// warmup is the number of requests each client sends before the
	// measured phase.
	warmup int
	// ingestSegs is the number of sealed segments' worth of rows the
	// ingest phase times, one seal-to-seal chunk each; the end-to-end run
	// cuts its measured phase into as many rounds, one chunk after each.
	ingestSegs int
	// sampleEvery: the oracle re-answers one request in this many.
	sampleEvery int
	// newStream returns client c's request stream.
	newStream func(seed uint64, c int) stream
}

var workloads = []*workload{
	// The restart-and-serve path: distinct queries, so every request misses
	// the answer cache, evaluates the store and debits ε.
	{
		name: "miss_1m",
		rows: 1_000_000, durable: true,
		warmup: 3000, ingestSegs: 64, sampleEvery: 64,
		newStream: func(seed uint64, c int) stream { return newMissStream(seed, c) },
	},
	// The cache-hit path: HTTP, middleware, JSON and the cache probe; the
	// store does nothing, so storage changes must show no change here.
	{
		name: "hot_1m",
		rows: 1_000_000, hits: true,
		warmup: 6000, ingestSegs: 64, sampleEvery: 64,
		newStream: func(seed uint64, c int) stream { return newHotStream(seed, c) },
	},
	// The one workload larger than the program's cache: about 3/4 of the
	// segments are spilled, and the clustered rows let a narrow height band
	// skip almost every segment by its zone map, if the map is consulted
	// before the segment is decoded.
	{
		name: "spill_clustered",
		rows: 250_000, durable: true, clustered: true, memCapDiv: 4,
		warmup: 60, ingestSegs: 48, sampleEvery: 8,
		newStream: func(seed uint64, c int) stream { return newBandStream(seed, c) },
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Dataset seeds are derived from --seed so that the served rows, the
// ingested rows and each client's query stream are independent draws.
const (
	ingestSeedSalt = 0x696e67657374 // "ingest"
	missTag        = 0x6d697373     // "miss"
	hotTag         = 0x686f74       // "hot"
	bandTag        = 0x62616e64     // "band"
	zipfTag        = 0x7a697066     // "zipf"
)

// servedDataset is the workload's served rows: the trial schema, in
// ascending height order when the workload is clustered (rows arriving
// ordered by a key the queries filter on).
func servedDataset(w *workload, seed uint64) (*dataset.Dataset, error) {
	d, err := dataset.Synth("trial", w.rows, seed)
	if err != nil {
		return nil, err
	}
	if !w.clustered {
		return d, nil
	}
	h := d.Index("height")
	perm := make([]int, d.Rows())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return d.Float(perm[a], h) < d.Float(perm[b], h) })
	return d.Select(perm), nil
}

// stream yields one client's requests. Streams are pure functions of
// (seed, client): the same seed gives a byte-identical request stream.
type stream interface {
	next() sdcquery.QueryJSON
}

// colStat is the rough location and spread of a trial column, used to
// place thresholds and bands where the data is dense enough that no query
// set is empty (an empty AVG would be denied).
type colStat struct {
	name     string
	mean, sd float64
}

var trialCols = []colStat{
	{"height", 170, 9},
	{"weight", 74, 13},
	{"qi3", 50, 15},
	{"qi4", 50, 15},
	{"blood_pressure", 121, 10},
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// canonical is the query's canonical string: the answer cache and the DP
// noise key both use it.
func canonical(qj sdcquery.QueryJSON) string {
	q, err := qj.ToQuery()
	if err != nil {
		panic(err) // generators only build valid queries
	}
	return q.String()
}

// body encodes a query as the /query request body.
func body(qj sdcquery.QueryJSON) []byte {
	b, err := json.Marshal(qj)
	if err != nil {
		panic(err) // a QueryJSON always encodes
	}
	return b
}

// aggregate returns the slot'th aggregate of the COUNT, SUM, AVG cycle.
func aggregate(rng *rand.Rand, slot int) (agg, attr string) {
	switch slot % 3 {
	case 0:
		return "COUNT", ""
	case 1:
		return "SUM", "blood_pressure"
	default:
		return "AVG", trialCols[rng.IntN(len(trialCols))].name
	}
}

// band is a half-open interval [lo, lo+w) on col.
func band(col string, lo, w float64) []sdcquery.CondJSON {
	return []sdcquery.CondJSON{
		{Col: col, Op: ">=", V: lo},
		{Col: col, Op: "<", V: round2(lo + w)},
	}
}

// threshold is a one-sided condition within ±1.5 sd of the column mean.
func threshold(rng *rand.Rand) sdcquery.CondJSON {
	c := trialCols[rng.IntN(len(trialCols))]
	op := "<"
	if rng.IntN(2) == 1 {
		op = ">="
	}
	return sdcquery.CondJSON{Col: c.name, Op: op, V: round2(c.mean + c.sd*(3*rng.Float64()-1.5))}
}

// mixQuery draws the slot'th query of the cache-miss mix: a narrow band on
// height or weight, a broad one-sided threshold, or aids=Y joined with a
// threshold, each under COUNT, SUM or AVG. The nine shape and aggregate
// pairs cycle with the slot rather than being drawn, so every run serves
// the same proportions of each and only the constants vary with the seed;
// a drawn mix would move the latency median between the shapes' modes.
func mixQuery(rng *rand.Rand, slot int) sdcquery.QueryJSON {
	var q sdcquery.QueryJSON
	q.Agg, q.Attr = aggregate(rng, slot/3)
	switch slot % 3 {
	case 0:
		c := trialCols[rng.IntN(2)]
		q.Where = band(c.name, round2(c.mean+c.sd*(4*rng.Float64()-2)), 0.2+1.8*rng.Float64())
	case 1:
		q.Where = []sdcquery.CondJSON{threshold(rng)}
	default:
		q.Where = []sdcquery.CondJSON{{Col: "aids", Op: "=", S: "Y"}, threshold(rng)}
	}
	return q
}

// distinctStream draws from gen and skips any query whose canonical string
// it has already yielded, so no request of the stream can be an
// answer-cache hit.
type distinctStream struct {
	rng  *rand.Rand
	gen  func(rng *rand.Rand, slot int) sdcquery.QueryJSON
	seen map[string]struct{}
	slot int
}

func (s *distinctStream) next() sdcquery.QueryJSON {
	defer func() { s.slot++ }()
	for {
		q := s.gen(s.rng, s.slot)
		k := canonical(q)
		if _, dup := s.seen[k]; dup {
			continue
		}
		s.seen[k] = struct{}{}
		return q
	}
}

func newMissStream(seed uint64, c int) *distinctStream {
	return &distinctStream{
		rng:  rand.New(rand.NewPCG(seed, uint64(c)<<32|missTag)),
		gen:  mixQuery,
		seen: map[string]struct{}{},
	}
}

// newBandStream yields distinct narrow height bands, the only predicate
// shape of the clustered workload.
func newBandStream(seed uint64, c int) *distinctStream {
	return &distinctStream{
		rng: rand.New(rand.NewPCG(seed, uint64(c)<<32|bandTag)),
		gen: func(rng *rand.Rand, slot int) sdcquery.QueryJSON {
			var q sdcquery.QueryJSON
			q.Agg, q.Attr = aggregate(rng, slot)
			q.Where = band("height", round2(170+9*(4*rng.Float64()-2)), 0.3+1.2*rng.Float64())
			return q
		},
		seen: map[string]struct{}{},
	}
}

// hotShapes is the number of distinct query shapes of the cache-hit mix.
const hotShapes = 256

// hotStream first asks every shape once, in a per-client order (the
// warm-up pass that fills the answer cache), then draws shapes Zipf(1.1).
// The shapes are shared by all clients; the cache key includes the
// principal, so each client warms its own entries.
type hotStream struct {
	shapes []sdcquery.QueryJSON
	order  []int
	zipf   *rand.Zipf
	i      int
}

func hotShapeSet(seed uint64) []sdcquery.QueryJSON {
	s := &distinctStream{
		rng:  rand.New(rand.NewPCG(seed, hotTag)),
		gen:  mixQuery,
		seen: map[string]struct{}{},
	}
	shapes := make([]sdcquery.QueryJSON, hotShapes)
	for i := range shapes {
		shapes[i] = s.next()
	}
	return shapes
}

func newHotStream(seed uint64, c int) *hotStream {
	rng := rand.New(rand.NewPCG(seed, uint64(c)<<32|zipfTag))
	return &hotStream{
		shapes: hotShapeSet(seed),
		order:  rng.Perm(hotShapes),
		zipf:   rand.NewZipf(rng, 1.1, 1, hotShapes-1),
	}
}

func (h *hotStream) next() sdcquery.QueryJSON {
	defer func() { h.i++ }()
	if h.i < len(h.order) {
		return h.shapes[h.order[h.i]]
	}
	return h.shapes[h.zipf.Uint64()]
}
