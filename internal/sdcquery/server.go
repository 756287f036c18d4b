package sdcquery

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"privacy3d/internal/dataset"
	"privacy3d/internal/dp"
	"privacy3d/internal/noise"
	"privacy3d/internal/par"
	"privacy3d/internal/store"
)

// Protection selects the inference-control strategy of a Server. The three
// non-trivial strategies correspond to the paper's "perturbing, restricting
// or replacing by intervals the answers to certain queries" ([7,14,16]).
type Protection int

const (
	// NoProtection answers every query exactly (the raw search-engine-like
	// database with neither respondent nor user privacy).
	NoProtection Protection = iota
	// SizeRestriction denies queries whose query set has fewer than
	// MinSetSize or more than n-MinSetSize records.
	SizeRestriction
	// Auditing tracks answered queries and denies any query whose answer,
	// combined with the history, would fully determine one record's
	// confidential value (Chin & Ozsoyoglu 1982).
	Auditing
	// Perturbation answers with additive noise (Duncan & Mukherjee 2000).
	// The noise is derived statelessly from (Seed, canonical query), so a
	// repeated query re-releases the identical perturbed value — averaging
	// repetitions gains nothing — and perturbed answers need no shared rng
	// on the hot path.
	Perturbation
	// Camouflage answers with an interval guaranteed to contain the true
	// value (CVC, Gopal et al. 2002).
	Camouflage
	// OverlapRestriction denies queries overlapping a previously answered
	// query set in more than MaxOverlap records (Dobkin, Jones & Lipton
	// 1979), on top of the MinSetSize bound.
	OverlapRestriction
	// RandomSample answers each query over a query-keyed pseudo-random
	// subsample of the query set (Denning 1980): difference attacks stop
	// working because the two differenced queries draw different samples,
	// while aggregate answers stay approximately right (scaled back up).
	RandomSample
	// DifferentialPrivacy answers with Laplace (or Gaussian, when
	// Config.Delta > 0) noise calibrated to the query's sensitivity, and
	// debits a per-principal ε budget on every fresh answer. Queries must
	// carry a principal (AskAs / the X-Privacy3D-Principal header); once a
	// principal's ε is spent, further queries are refused with a typed
	// budget-exhausted error. Unlike the heuristic Perturbation mode, the
	// noise scale follows the DP calibration Δ/ε and the same seed
	// reproduces byte-identical answers at any concurrency level. A
	// repeated identical (principal, query) is served from the answer
	// cache as a re-release of the identical value and debits ε exactly
	// once — re-releasing what the principal already holds leaks nothing
	// new, so charging it again was pure loss (the seed double-debited).
	DifferentialPrivacy
)

// String names the protection.
func (p Protection) String() string {
	switch p {
	case NoProtection:
		return "none"
	case SizeRestriction:
		return "size-restriction"
	case Auditing:
		return "auditing"
	case Perturbation:
		return "perturbation"
	case Camouflage:
		return "camouflage"
	case OverlapRestriction:
		return "overlap-restriction"
	case RandomSample:
		return "random-sample"
	case DifferentialPrivacy:
		return "differential-privacy"
	default:
		return fmt.Sprintf("Protection(%d)", int(p))
	}
}

// protectionsByName is the single source of truth for the short -protect
// flag names: the CLI parser, its help text, the error messages and the
// rendered ProtectionTable all derive from it, so they cannot drift apart
// (they did once; the lint golden test now pins them). Flags lists the
// extra CLI flags a mode consumes; Doc is the one-line description of the
// generated table.
var protectionsByName = []struct {
	Name  string
	P     Protection
	Flags string
	Doc   string
}{
	{"none", NoProtection, "",
		"answers every query exactly (no respondent or user privacy)"},
	{"size", SizeRestriction, "-minsize",
		"denies queries whose query set is smaller than minsize or larger than n−minsize"},
	{"auditing", Auditing, "-minsize",
		"denies any query that, combined with the answered history, would determine one record's confidential value"},
	{"perturbation", Perturbation, "",
		"adds heuristic Laplace noise of fixed standard deviation to every answer"},
	{"camouflage", Camouflage, "",
		"answers with an interval guaranteed to contain the true value"},
	{"overlap", OverlapRestriction, "-minsize",
		"denies queries overlapping a previously answered query set in more than one record"},
	{"sample", RandomSample, "",
		"answers over a query-keyed pseudo-random subsample, defeating difference attacks"},
	{"dp", DifferentialPrivacy, "-epsilon, -delta, -budget, -principal",
		"adds Laplace (or Gaussian when δ>0) noise calibrated to the query's sensitivity and debits a per-principal ε budget; see DESIGN.md §Inference control"},
}

// ProtectionTable renders the -protect modes as a GitHub-flavoured markdown
// table — the README "Query protections" section and the lint golden file
// (cmd/privacy3d/testdata/protections.golden) are both this one output, so
// the docs cannot drift from the parser.
func ProtectionTable() string {
	var b strings.Builder
	b.WriteString("| `-protect` | Protection | Extra flags | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, p := range protectionsByName {
		flags := p.Flags
		if flags == "" {
			flags = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", p.Name, p.P, flags, p.Doc)
	}
	return b.String()
}

// ProtectionNames lists every accepted short protection name, in canonical
// order.
func ProtectionNames() []string {
	names := make([]string, len(protectionsByName))
	for i, p := range protectionsByName {
		names[i] = p.Name
	}
	return names
}

// ParseProtection resolves a short protection name ("size", "auditing", …).
func ParseProtection(name string) (Protection, error) {
	for _, p := range protectionsByName {
		if p.Name == name {
			return p.P, nil
		}
	}
	return 0, fmt.Errorf("sdcquery: unknown protection %q (want %s)", name, strings.Join(ProtectionNames(), ", "))
}

// Answer is the server's response to a query.
type Answer struct {
	// Denied reports that the protection refused the query; Reason says why.
	Denied bool
	Reason string
	// Value is the (possibly perturbed) point answer when not denied and
	// not camouflaged.
	Value float64
	// Lo/Hi bound the answer under Camouflage (Lo ≤ true ≤ Hi).
	Lo, Hi float64
	// Interval reports that Lo/Hi carry the answer.
	Interval bool
	// Budgeted reports that this answer was released under
	// DifferentialPrivacy and is budget-accounted: Epsilon is the ε the
	// release cost (charged once, at first release — a cache-served
	// repeat is a re-release and costs nothing) and EpsilonRemaining the
	// principal's unspent ε after accounting.
	Budgeted         bool
	Epsilon          float64
	EpsilonRemaining float64
}

// Serving-layer defaults. Both logs and caches are bounded by default: a
// server meant to survive sustained traffic must not hold state that grows
// linearly with the query stream.
const (
	// DefaultQueryLogCap bounds Server's query log to the newest window
	// (mirrors pir.DefaultQueryLogCap).
	DefaultQueryLogCap = 4096
	// DefaultAnswerCacheCap bounds the answer cache.
	DefaultAnswerCacheCap = 4096
	// DefaultMaxTrackedQueries caps the overlap controller's answered-set
	// history.
	DefaultMaxTrackedQueries = 65536
)

// Config parameterises a Server.
type Config struct {
	Protection Protection
	// MinSetSize is the query-set-size threshold for SizeRestriction
	// (default 3, also used by Auditing as a first filter if > 0).
	MinSetSize int
	// NoiseSD is the absolute standard deviation of Laplace perturbation
	// noise (default: 1).
	NoiseSD float64
	// CamouflageWidth is the half-width of camouflage intervals as a
	// fraction of the answer magnitude (default 0.1).
	CamouflageWidth float64
	// MaxOverlap bounds pairwise query-set intersections under
	// OverlapRestriction (default 1).
	MaxOverlap int
	// SampleRate is the inclusion probability of RandomSample
	// (default 0.8).
	SampleRate float64
	// Seed drives the perturbation noise. Under Perturbation and
	// DifferentialPrivacy it is the root of the reproducibility contract:
	// the released noise is a pure function of (Seed, [principal,]
	// canonical query string), so the same seed yields byte-identical
	// perturbed answers at any worker count and request interleaving.
	Seed uint64

	// Epsilon is the per-query privacy cost ε of DifferentialPrivacy
	// (default 0.5). Each freshly answered query debits this much from
	// the asking principal's budget; cache-served repeats debit nothing.
	Epsilon float64
	// Delta selects the mechanism of DifferentialPrivacy: 0 (default)
	// uses the ε-DP Laplace mechanism; 0 < Delta < 1 uses the (ε,δ)-DP
	// Gaussian mechanism with σ = Δ·√(2·ln(1.25/δ))/ε.
	Delta float64
	// EpsilonBudget is the total ε each (principal, dataset) pair may
	// spend under DifferentialPrivacy (default 10). Once spent, further
	// queries are refused with an error wrapping dp.ErrBudgetExhausted.
	EpsilonBudget float64
	// DatasetID names the served dataset in the budget ledger key
	// (default "served"); distinct IDs keep budgets separate when one
	// ledger fronts several releases.
	DatasetID string

	// QueryLogCap bounds the query log to the newest entries (default
	// DefaultQueryLogCap). The owner's view becomes a sliding window;
	// LogStats reports exactly how much older history was shed. Ignored
	// when UnboundedQueryLog is set.
	QueryLogCap int
	// UnboundedQueryLog opts into the original append-only full-log
	// semantics — the user-privacy evaluator's literal "the owner sees
	// every query" reading. A server under sustained load must leave
	// this off: an unbounded log grows until the process OOMs.
	UnboundedQueryLog bool
	// AnswerCacheCap bounds the answer cache (default
	// DefaultAnswerCacheCap entries; negative disables caching). The
	// cache serves repeated (principal, canonical query) shapes without
	// re-scanning the dataset; under DifferentialPrivacy it also makes a
	// repeat a free re-release instead of a second ε debit.
	AnswerCacheCap int
	// MaxTrackedQueries caps the overlap controller's answered-set
	// history (default DefaultMaxTrackedQueries). When the cap is
	// reached, further new query sets are denied — deny-when-full:
	// forgetting answered sets would re-admit exactly the difference
	// attacks overlap control exists to stop, so the controller
	// sacrifices availability, never the overlap bound. Only
	// OverlapRestriction reads this.
	MaxTrackedQueries int

	// SegmentSize is the rows-per-segment of the columnar store backing
	// the server (default store.DefaultSegmentSize; must be a multiple
	// of 64 in [64, store.MaxSegmentSize]). Smaller segments seal — and therefore index —
	// ingested rows sooner at the cost of more per-segment overhead.
	SegmentSize int
	// DataDir makes the backing store durable: sealed segments spill to
	// checksummed files under this directory behind a manifest, so the
	// served data survives restarts (store.Open + NewServerFromStore
	// recovers it). Empty keeps the store memory-only. NewServer creates a
	// fresh store here and fails if the directory already holds one.
	DataDir string
	// MemCap caps the decoded resident bytes of sealed segments when
	// DataDir is set (0 = uncapped): segments beyond the cap are evicted
	// after being persisted and decoded from their files on demand,
	// letting the served dataset exceed RAM. Answers are byte-identical
	// across tiers.
	MemCap int64
}

// Server is an interactively queryable statistical database. It records
// every query submitted — the total absence of user privacy that Section 3
// of the paper builds on. The log is a bounded newest-window ring by
// default (Config.QueryLogCap, drops counted); the evaluator's full-log
// semantics are an explicit opt-in (Config.UnboundedQueryLog).
//
// Server is safe for concurrent use, and the hot path is built for
// sustained load: every protection evaluates the query set and computes its
// answer without taking any server-wide lock — the dataset is immutable,
// perturbation/camouflage/sample/dp noise is a pure function of (Seed,
// [principal,] query), and the query-log append is an O(1) bounded-ring
// operation. The stateful protections (auditing, overlap control,
// differential privacy's ε budget) then take the one privacy-state lock for
// their check-and-commit only — never around the full-table scan. Repeated
// (principal, query) shapes are served from a bounded answer cache without
// re-scanning at all.
type Server struct {
	// st is the columnar segment store the server answers from; every
	// query pins one store.Snapshot, so concurrent Ingest never changes
	// an in-flight answer's (or audit's) view of the data.
	st  *store.Store
	cfg Config

	// Query log: the bounded ring is the default; the unbounded slice
	// (logMu-guarded) is the explicit evaluator opt-in.
	logRing *par.Ring[Query]
	logMu   sync.Mutex
	fullLog []Query

	// cache serves repeated (principal, query) shapes; nil when disabled.
	cache *answerCache

	// priv records what the stateful protections have released: the ε
	// ledger, the audited systems and the overlap controller, behind one
	// lock.
	priv *privacyState
	// bounds are the public per-attribute bounds the DP sensitivity rules
	// use, fixed at construction.
	bounds map[string]dp.Bounds

	// Batch telemetry: AskBatch submissions and the queries they carried
	// (batchQueries/batches is the mean batch width the metrics export).
	batches      atomic.Int64
	batchQueries atomic.Int64
}

// NewServer wraps a dataset in a protected query interface. The rows are
// copied into the backing columnar store; d is not retained. With
// cfg.DataDir set, that store is created durable in the directory (which
// must not already contain a store — recover an existing one with
// store.Open + NewServerFromStore instead).
func NewServer(d *dataset.Dataset, cfg Config) (*Server, error) {
	if d == nil || d.Rows() == 0 {
		return nil, fmt.Errorf("sdcquery: server needs a non-empty dataset")
	}
	var (
		st  *store.Store
		err error
	)
	if cfg.DataDir != "" {
		st, err = store.CreateFromDataset(cfg.DataDir, d, store.Options{
			SegmentSize: cfg.SegmentSize,
			MemCap:      cfg.MemCap,
		})
	} else {
		st, err = store.FromDataset(d, cfg.SegmentSize)
	}
	if err != nil {
		return nil, err
	}
	s, err := NewServerFromStore(st, cfg)
	if err != nil {
		if cfg.DataDir != "" {
			st.Close()
		}
		return nil, err
	}
	return s, nil
}

// NewServerFromStore serves an existing columnar store — the recovery
// path: store.Open(datadir) hands back the last committed sealed state and
// this wraps it in the same protected query interface NewServer builds.
// The server takes ownership of the store; Close releases it.
func NewServerFromStore(st *store.Store, cfg Config) (*Server, error) {
	if st == nil || st.Rows() == 0 {
		return nil, fmt.Errorf("sdcquery: server needs a non-empty store")
	}
	if cfg.MinSetSize <= 0 {
		cfg.MinSetSize = 3
	}
	if cfg.NoiseSD <= 0 {
		cfg.NoiseSD = 1
	}
	if cfg.CamouflageWidth <= 0 {
		cfg.CamouflageWidth = 0.1
	}
	if cfg.MaxOverlap <= 0 {
		cfg.MaxOverlap = 1
	}
	if cfg.SampleRate <= 0 || cfg.SampleRate > 1 {
		cfg.SampleRate = 0.8
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.5
	}
	if cfg.Delta < 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("sdcquery: delta must be in [0, 1), got %g", cfg.Delta)
	}
	if cfg.EpsilonBudget <= 0 {
		cfg.EpsilonBudget = 10
	}
	if cfg.DatasetID == "" {
		cfg.DatasetID = "served"
	}
	if cfg.QueryLogCap <= 0 {
		cfg.QueryLogCap = DefaultQueryLogCap
	}
	if cfg.AnswerCacheCap == 0 {
		cfg.AnswerCacheCap = DefaultAnswerCacheCap
	}
	if cfg.MaxTrackedQueries <= 0 {
		cfg.MaxTrackedQueries = DefaultMaxTrackedQueries
	}
	// A two-sided size restriction needs room for an admissible set size:
	// with fewer than 2·MinSetSize rows every possible query set is either
	// below MinSetSize or above Rows−MinSetSize, so the server would deny
	// every query it will ever see. That is a configuration error, not a
	// server.
	if cfg.Protection == SizeRestriction && st.Rows() < 2*cfg.MinSetSize {
		return nil, fmt.Errorf("sdcquery: size restriction with minsize %d can never answer over %d rows (every query set size falls outside [%d,%d]); lower minsize or serve more rows",
			cfg.MinSetSize, st.Rows(), cfg.MinSetSize, st.Rows()-cfg.MinSetSize)
	}
	priv, err := newPrivacyState(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{st: st, cfg: cfg, priv: priv}
	if !cfg.UnboundedQueryLog {
		s.logRing = par.NewRing[Query](cfg.QueryLogCap)
	}
	if cfg.AnswerCacheCap > 0 {
		s.cache = newAnswerCache(cfg.AnswerCacheCap)
	}
	if cfg.Protection == DifferentialPrivacy {
		// The bounds of each numeric attribute become fixed public
		// metadata for the server's lifetime — the sensitivity of SUM and
		// AVG is derived from them, never from the live query set's
		// values, so the noise scale leaks nothing per query. The snapshot
		// answers min/max from the per-segment zone maps, identical to a
		// row sweep over the column.
		snap := st.Snapshot()
		s.bounds = make(map[string]dp.Bounds)
		for j, a := range st.Attrs() {
			if a.Kind == dataset.Numeric {
				lo, hi := snap.NumRange(j)
				s.bounds[a.Name] = dp.Bounds{Lo: lo, Hi: hi}
			}
		}
	}
	return s, nil
}

// Close releases the backing store: a durable store commits its final
// state (including the open tail) and drops its directory lock. The
// server must not answer queries afterwards.
func (s *Server) Close() error { return s.st.Close() }

// logQuery records q in the owner's log: an O(1) ring append on the
// bounded default, a slice append under logMu on the unbounded opt-in.
func (s *Server) logQuery(q Query) {
	if s.logRing != nil {
		s.logRing.Append(q)
		return
	}
	s.logMu.Lock()
	s.fullLog = append(s.fullLog, q)
	s.logMu.Unlock()
}

// Log returns a copy of the queries the server retains, in submission
// order. The user-privacy evaluator reads this: for a plaintext statistical
// server the log IS the user's query stream. Under the default bounded log
// it is the newest Config.QueryLogCap window; LogStats reports how much
// older history was dropped.
func (s *Server) Log() []Query {
	if s.logRing != nil {
		return s.logRing.Snapshot()
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return append([]Query(nil), s.fullLog...)
}

// LogDepth returns the number of retained queries without copying the log —
// cheap enough to sample on every metrics scrape.
func (s *Server) LogDepth() int {
	if s.logRing != nil {
		return s.logRing.Len()
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return len(s.fullLog)
}

// LogStats reports the query log's state: entries retained, entries
// dropped (overwritten) since construction, and the retention cap.
// capacity is 0 under the unbounded opt-in, where nothing is ever dropped.
func (s *Server) LogStats() (retained int, dropped int64, capacity int) {
	if s.logRing != nil {
		return s.logRing.Len(), s.logRing.Dropped(), s.logRing.Cap()
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return len(s.fullLog), 0, 0
}

// CacheStats reports the answer cache's lifetime hits and misses and its
// current entry count; ok is false when caching is disabled.
func (s *Server) CacheStats() (hits, misses int64, entries int, ok bool) {
	if s.cache == nil {
		return 0, 0, 0, false
	}
	hits, misses, entries = s.cache.stats()
	return hits, misses, entries, true
}

// OverlapStats reports the overlap controller's answered-history size and
// its cap (the Config.MaxTrackedQueries bound).
func (s *Server) OverlapStats() (tracked, capacity int) {
	s.priv.mu.Lock()
	defer s.priv.mu.Unlock()
	return s.priv.overlap.Stats()
}

// Rows exposes the current database size (public metadata). It grows as
// rows are ingested.
func (s *Server) Rows() int { return s.st.Rows() }

// Version identifies the currently visible data (the store's monotonic
// publish counter). Answer-cache and noise keys embed it, so answers
// computed against one version are never served for another.
func (s *Server) Version() uint64 { return s.st.Version() }

// Shards reports the columnar store's segment-shard count.
func (s *Server) Shards() int { return s.st.Shards() }

// ScratchStats reports the store's pooled-scratch leases and pool misses;
// the metrics layer derives the pooled-bitmap hit rate from them.
func (s *Server) ScratchStats() (gets, news int64) { return s.st.ScratchStats() }

// BatchStats reports how many AskBatch submissions the server has seen and
// how many queries they carried in total.
func (s *Server) BatchStats() (batches, queries int64) {
	return s.batches.Load(), s.batchQueries.Load()
}

// Dataset exposes the served microdata — the owner-side handle the
// /protect endpoint masks releases from: a fresh materialization of the
// current snapshot, so a masking run is never affected by ingest that lands
// mid-release. A spilled segment whose file no longer reads back intact
// fails it with an error wrapping store.ErrUnreadable that names the file.
func (s *Server) Dataset() (*dataset.Dataset, error) { return s.st.Snapshot().Dataset() }

// Ingest appends one record to the served microdata (same value contract
// as dataset.Append). In-flight queries, audits and releases pinned an
// earlier snapshot and are unaffected; the next query sees the new row.
//
// Under DifferentialPrivacy the per-attribute sensitivity bounds stay as
// captured at construction for this Server's lifetime: the noise scale
// never tracks rows ingested into it, so ingested values outside those
// bounds are the owner's responsibility (deriving new bounds from ingested
// values would leak them). A restart does not keep them, though:
// NewServerFromStore over the same data directory derives the bounds from
// the stored data again (Snapshot.NumRange), ingested outliers included.
// Declaring the bounds as persisted schema metadata is an open ROADMAP
// item ("DP that holds against colluding principals, ingest and
// restarts").
func (s *Server) Ingest(vals ...any) error { return s.st.Append(vals...) }

// Ask submits an anonymous query. Every query is logged before protection
// runs: the owner sees denied queries too. Under DifferentialPrivacy an
// anonymous query cannot be budget-accounted and fails with
// dp.ErrNoPrincipal — use AskAs.
func (s *Server) Ask(q Query) (Answer, error) { return s.AskAs("", q) }

// AskAs submits a query on behalf of a principal (the budget-accounting
// identity under DifferentialPrivacy; ignored by the other protections).
// Every query is logged before protection runs: the owner sees denied
// queries too.
//
// Repeated (principal, canonical query) shapes are served from the bounded
// answer cache: a hit releases exactly the bytes the uncached serial path
// would have released — every cached protection answers a repeat as a pure
// function of (principal, query) — without re-scanning the dataset. Under
// DifferentialPrivacy a hit is a re-release of a value the principal
// already holds and therefore debits no additional ε (only
// EpsilonRemaining is refreshed to the current ledger state). Overlap
// restriction is never cached: its repeat-denials depend on the answered
// history, so a cached answer would diverge from the serial path.
func (s *Server) AskAs(principal string, q Query) (Answer, error) {
	s.logQuery(q)
	// Pin the snapshot first: the cache key embeds its version, so a hit
	// can only ever serve an answer computed against this exact view —
	// ingest between requests changes the key, never a cached answer.
	snap := s.st.Snapshot()
	return s.askOne(principal, snap, q, s.cacheKey(principal, snap.Version(), q), nil)
}

// askOne is the post-log tail shared by AskAs and AskBatch: cache probe,
// protection dispatch, then the privacy state's check-and-commit (which
// fills the cache under its lock) or a plain cache fill. key is the
// answer-cache key, "" when uncached. bm, when non-nil, is the query set
// already evaluated against snap (AskBatch precomputes its misses in one
// sharded sweep). Under DP two concurrent identical first requests may
// both miss and evaluate, but only the first commit charges ε.
func (s *Server) askOne(principal string, snap *store.Snapshot, q Query, key string, bm *store.Bitmap) (Answer, error) {
	if key != "" {
		if a, ok := s.cache.get(key); ok {
			return s.priv.rerelease(principal, a), nil
		}
	}
	c, err := s.answer(principal, snap, q, bm)
	if err != nil {
		return Answer{}, err
	}
	// Only the stateful protections keep a history, and a denial releases
	// nothing to record.
	if p := s.cfg.Protection; (p == Auditing || p == OverlapRestriction || p == DifferentialPrivacy) && !c.Denied {
		return s.priv.commit(s.cache, key, c)
	}
	if key != "" {
		s.cache.put(key, c.Answer)
	}
	return c.Answer, nil
}

// AskBatch submits several queries on behalf of one principal and answers
// them in submission order. Every query is logged (denied and failed ones
// too) and the whole batch pins ONE snapshot, so the batch answers a single
// consistent version. The point of the entry is the miss path: the query
// sets of every answer-cache miss are evaluated together in one sharded
// column sweep (store.Snapshot.EvalBatch) — each segment's columns and
// indexes are loaded once and tested against every missed predicate — and
// every query, hit or miss, is then answered in order by the same askOne
// the serial path runs. Each answer is byte-identical to what the
// equivalent serial AskAs loop would have produced: the stateful
// protections (auditing, overlap restriction) commit their state per answer
// in batch order, and the noise/cache keys depend only on (version,
// principal, query).
//
// errs[i] reports the i'th query's failure; one malformed query never
// sinks the rest of the batch.
func (s *Server) AskBatch(principal string, qs []Query) (answers []Answer, errs []error) {
	answers = make([]Answer, len(qs))
	errs = make([]error, len(qs))
	if len(qs) == 0 {
		return answers, errs
	}
	s.batches.Add(1)
	s.batchQueries.Add(int64(len(qs)))
	for _, q := range qs {
		s.logQuery(q)
	}
	snap := s.st.Snapshot()
	if s.cfg.Protection == DifferentialPrivacy && principal == "" {
		// Same precedence as the serial path: the principal check precedes
		// any evaluation, so nothing is computed for a caller who cannot be
		// budget-accounted.
		for i := range qs {
			errs[i] = fmt.Errorf("sdcquery: differential privacy needs a principal for budget accounting: %w", dp.ErrNoPrincipal)
		}
		return answers, errs
	}
	// Evaluate every miss in one sharded sweep. The cache probe only picks
	// which queries skip the sweep: askOne re-checks the cache (and commit
	// again under the privacy-state lock), so a racing eviction costs at
	// worst one single-query evaluation, never a double ε debit. Queries that fail
	// predicate compilation get their error now and are excluded —
	// EvalBatch fails whole batches, so it only ever sees pre-validated
	// conjunctions.
	keys := make([]string, len(qs))
	missIdx := make([]int, 0, len(qs))
	batch := make([][]store.Cond, 0, len(qs))
	for i, q := range qs {
		keys[i] = s.cacheKey(principal, snap.Version(), q)
		if keys[i] != "" {
			if _, ok := s.cache.peek(keys[i]); ok {
				continue
			}
		}
		conds, err := s.storeConds(snap, q.Where)
		if err != nil {
			errs[i] = err
			continue
		}
		missIdx = append(missIdx, i)
		batch = append(batch, conds)
	}
	bms := make([]*store.Bitmap, len(qs))
	if len(batch) > 0 {
		evaled, err := snap.EvalBatch(batch)
		for k, i := range missIdx {
			if err != nil {
				// The conjunctions are pre-compiled, so this is an
				// unreadable segment (store.ErrUnreadable): every missed
				// query read it, so each fails with that error. The cache
				// hits read nothing and are still answered below.
				errs[i] = err
			} else {
				bms[i] = evaled[k]
			}
		}
	}
	// Answer in submission order so the stateful protections mutate their
	// history exactly like the equivalent serial AskAs loop.
	for i, q := range qs {
		if errs[i] == nil {
			answers[i], errs[i] = s.askOne(principal, snap, q, keys[i], bms[i])
		}
	}
	return answers, errs
}

// cacheKey returns the answer-cache key of (principal, version, q), or ""
// when the configured protection admits no caching at all. The snapshot
// version joins every key — an answer computed against one version of the
// growing store must never be served for another. The principal joins only
// under DifferentialPrivacy — the one protection whose answers depend on
// who asks; every other protection shares hits across principals.
func (s *Server) cacheKey(principal string, version uint64, q Query) string {
	if s.cache == nil || s.cfg.Protection == OverlapRestriction {
		return ""
	}
	v := strconv.FormatUint(version, 10)
	if s.cfg.Protection == DifferentialPrivacy {
		return v + "\x00" + principal + "\x00" + q.String()
	}
	return v + "\x00" + q.String()
}

// answer runs the configured protection against the pinned snapshot,
// outside any server-wide lock (the snapshot is immutable): the query-set
// evaluation — index range scans intersected into a bitmap — and the
// answer, noise included. For the stateful protections the result is a
// claim that askOne passes to the privacy state's check-and-commit. bm,
// when non-nil, is the already-evaluated query set (the batched miss
// path); protection dispatch is identical either way, so a precomputed
// bitmap cannot change a single answer byte.
func (s *Server) answer(principal string, snap *store.Snapshot, q Query, bm *store.Bitmap) (claim, error) {
	if s.cfg.Protection == DifferentialPrivacy && principal == "" {
		// Checked before any evaluation, matching the historical precedence:
		// an unidentified DP caller learns nothing, not even whether the
		// predicate compiles.
		return claim{}, fmt.Errorf("sdcquery: differential privacy needs a principal for budget accounting: %w", dp.ErrNoPrincipal)
	}
	if bm == nil {
		var err error
		if bm, err = s.eval(snap, q.Where); err != nil {
			return claim{}, err
		}
	}
	if s.cfg.Protection == DifferentialPrivacy {
		return s.dpAnswer(principal, snap, q, bm)
	}
	n := bm.Count()
	var (
		a   Answer
		err error
	)
	switch s.cfg.Protection {
	case NoProtection:
		a, err = s.exact(snap, q, bm, n)
	case SizeRestriction:
		if n < s.cfg.MinSetSize || n > snap.Rows()-s.cfg.MinSetSize {
			a = Answer{Denied: true, Reason: fmt.Sprintf("query set size %d outside [%d,%d]",
				n, s.cfg.MinSetSize, snap.Rows()-s.cfg.MinSetSize)}
		} else {
			a, err = s.exact(snap, q, bm, n)
		}
	case Auditing:
		return s.audited(snap, q, bm, n)
	case Perturbation:
		if a, err = s.exact(snap, q, bm, n); err == nil {
			a.Value += s.perturbNoise(snap.Version(), q)
		}
	case Camouflage:
		if a, err = s.exact(snap, q, bm, n); err == nil {
			a = s.camouflage(snap.Version(), q, a.Value)
		}
	case OverlapRestriction:
		// Admission decides before the evaluation error counts, so the
		// error rides in the claim (see privacyState.commit).
		a, err = s.exact(snap, q, bm, n)
		return claim{Answer: a, rows: bm.Rows(), err: err}, nil
	case RandomSample:
		a, err = s.sampled(snap, q, bm)
	default:
		err = fmt.Errorf("sdcquery: unknown protection %v", s.cfg.Protection)
	}
	return claim{Answer: a}, err
}

// storeConds validates the predicate against the schema and lowers it to
// store conditions. Validation runs through Predicate.Compile so the error
// text matches the library evaluator byte for byte, and the conditions are
// built from the compiled form, not the raw one: Compile has already
// resolved each condition's kind (including the lenient
// zero-valued-Cond-as-empty-string case), so the store sees exactly the
// comparison the library evaluator will run.
func (s *Server) storeConds(snap *store.Snapshot, p Predicate) ([]store.Cond, error) {
	attrs := snap.Attrs()
	cp, err := p.Compile(attrs)
	if err != nil {
		return nil, err
	}
	conds := make([]store.Cond, len(cp.conds))
	for i, c := range cp.conds {
		conds[i] = store.Cond{Col: attrs[c.col].Name, Op: store.Op(c.op), V: c.v, S: c.s, Str: !c.numeric}
	}
	return conds, nil
}

// eval answers the predicate over the snapshot as a row bitmap through
// the sharded segment indexes.
func (s *Server) eval(snap *store.Snapshot, p Predicate) (*store.Bitmap, error) {
	conds, err := s.storeConds(snap, p)
	if err != nil {
		return nil, err
	}
	return snap.Eval(conds)
}

// evalBitmap computes the true aggregate over an evaluated query set:
// COUNT is the bitmap's popcount (already taken by the caller), SUM/AVG a
// bitmap-driven column sweep in ascending row order — the identical float64
// summation order as the scan paths, so every evaluator agrees byte for
// byte. Validation and finishing are shared with Query.Evaluate
// (aggColumn, finishAgg).
func (s *Server) evalBitmap(snap *store.Snapshot, q Query, bm *store.Bitmap, n int) (float64, error) {
	j, err := aggColumn(snap.Attrs(), q)
	if err != nil {
		return 0, err
	}
	var sum float64
	if j >= 0 {
		sum = snap.Sum(bm, j)
	}
	return finishAgg(q.Agg, n, sum)
}

func (s *Server) exact(snap *store.Snapshot, q Query, bm *store.Bitmap, n int) (Answer, error) {
	v, err := s.evalBitmap(snap, q, bm, n)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Value: v}, nil
}

// noiseKey renders the derivation key shared by every stateless noise
// mechanism: the pinned snapshot version, the principal (empty outside DP),
// and the canonical query, mirroring cacheKey. Repeats within one data
// version re-release identically (no averaging attack); each version draws
// independently (differencing across an Ingest cancels nothing).
func noiseKey(version uint64, principal string, q Query) string {
	return strconv.FormatUint(version, 10) + "\x00" + principal + "\x00" + q.String()
}

// perturbNoise derives the Perturbation mode's Laplace noise statelessly
// from (Seed, snapshot version, canonical query). The shared-rng design
// this replaces serialized every perturbed answer behind one mutex AND let
// users average the noise out by repeating a query; the query-keyed
// derivation fixes both, following the same determinism contract as
// camouflage, random sample and dp. The version joins the key for the same
// reason as in dpAnswer: with a draw shared across versions, querying
// before and after an Ingest would disclose the ingested rows' exact
// aggregate contribution as the noiseless difference of the two answers.
func (s *Server) perturbNoise(version uint64, q Query) float64 {
	h := fnv.New64a()
	h.Write([]byte(noiseKey(version, "", q)))
	k := h.Sum64()
	rng := rand.New(rand.NewPCG(s.cfg.Seed^k, k*0x9e3779b97f4a7c15+1))
	return noise.Laplace(rng, s.cfg.NoiseSD)
}

// --- differential privacy ------------------------------------------------

// dpAnswer computes the noisy release of the evaluated query set bm under
// the calibrated-noise mechanism (answer has already rejected unidentified
// callers). Everything here is side-effect free: the true answer, its
// sensitivity and the noise are pure functions of (snapshot, principal,
// query). The claim it returns is released only if the privacy state's
// check-and-commit then debits the principal's ε — a refused query
// releases nothing and costs nothing, with an error wrapping
// dp.ErrBudgetExhausted that carries no information about the data.
func (s *Server) dpAnswer(principal string, snap *store.Snapshot, q Query, bm *store.Bitmap) (claim, error) {
	n := bm.Count()
	var agg dp.Aggregate
	var bounds dp.Bounds
	var v float64
	switch q.Agg {
	case Count:
		agg = dp.Count
		v = float64(n)
	case Sum, Avg:
		j, err := aggColumn(snap.Attrs(), q)
		if err != nil {
			return claim{}, err
		}
		bounds = s.bounds[q.Attr]
		if q.Agg == Avg && n == 0 {
			// AVG over an empty set has no true value to perturb; deny
			// like the other protections rather than invent one. A denial
			// skips the commit, so no ε is charged.
			return claim{Answer: Answer{Denied: true, Reason: "differential privacy: empty query set"}}, nil
		}
		sum := snap.Sum(bm, j)
		if q.Agg == Sum {
			agg = dp.Sum
			v = sum
		} else {
			agg = dp.Mean
			v = sum / float64(n)
		}
	default:
		return claim{}, fmt.Errorf("sdcquery: unsupported aggregate %v", q.Agg)
	}
	sens, err := dp.Sensitivity(agg, bounds, n)
	if err != nil {
		return claim{}, err
	}
	mech := dp.Laplace
	if s.cfg.Delta > 0 {
		mech = dp.Gaussian
	}
	// The noise key is (version, principal, canonical query), mirroring
	// cacheKey: repeating a query at one data version re-releases the
	// identical perturbed value — averaging attacks gain nothing — and the
	// answer stream is byte-identical for any request interleaving or
	// worker count. The answer cache exploits exactly this: a repeat is
	// served from the cache as a free re-release, so ε is debited once per
	// distinct (principal, query), not once per request. The version MUST
	// join the key: were the draw shared across versions, asking before and
	// after an Ingest would release v1+nz and v2+nz, and v2−v1 — the exact
	// aggregate contribution of the ingested rows — would difference out
	// with zero noise.
	nz, err := dp.Noise(s.cfg.Seed, noiseKey(snap.Version(), principal, q), dp.NoiseParams{
		Mechanism: mech, Sensitivity: sens, Epsilon: s.cfg.Epsilon, Delta: s.cfg.Delta,
	})
	if err != nil {
		return claim{}, err
	}
	return claim{Answer: Answer{Value: v + nz}, principal: principal}, nil
}

// BudgetRemaining reports the principal's unspent ε and whether the server
// runs budget accounting at all (only DifferentialPrivacy does).
func (s *Server) BudgetRemaining(principal string) (float64, bool) {
	if s.priv.ledger == nil {
		return 0, false
	}
	return s.priv.ledger.Remaining(principal, s.cfg.DatasetID), true
}

// BudgetPrincipals lists every principal the budget ledger has charged, in
// sorted order; nil when the server does not run DifferentialPrivacy. The
// metrics layer exports its length as dp_principals.
func (s *Server) BudgetPrincipals() []string {
	if s.priv.ledger == nil {
		return nil
	}
	return s.priv.ledger.Principals(s.cfg.DatasetID)
}

// camouflage returns an interval that contains the true value but whose
// midpoint is a deterministic, (version, query)-keyed offset from it, so
// repeating the query gains the user nothing and the exact value is never
// released. The snapshot version joins the offset key like every other
// noise derivation: a version-independent offset would let the interval
// midpoints before and after an Ingest difference to the ingested rows'
// exact aggregate contribution.
func (s *Server) camouflage(version uint64, q Query, v float64) Answer {
	w := s.cfg.CamouflageWidth * maxAbs(v, 1)
	h := fnv.New64a()
	h.Write([]byte(noiseKey(version, "", q)))
	// Deterministic offset in [-w/2, w/2].
	off := (float64(h.Sum64()%1_000_003)/1_000_003 - 0.5) * w
	return Answer{Interval: true, Lo: v + off - w, Hi: v + off + w}
}

func maxAbs(v, floor float64) float64 {
	if v < 0 {
		v = -v
	}
	if v < floor {
		return floor
	}
	return v
}

// sampled answers a query from a pseudo-random subsample of its query set,
// following Denning's random sample queries: the inclusion coin of record i
// is keyed on BOTH the query and the record, so overlapping queries draw
// independent samples and difference attacks no longer telescope — while
// repeating the same query returns the same answer (no averaging attack)
// and every aggregate remains an unbiased scaled estimate.
func (s *Server) sampled(snap *store.Snapshot, q Query, bm *store.Bitmap) (Answer, error) {
	j, err := aggColumn(snap.Attrs(), q)
	if err != nil {
		return Answer{}, err
	}
	qh := fnv.New64a()
	qh.Write([]byte(q.String()))
	qkey := qh.Sum64() ^ s.cfg.Seed
	// One ascending pass over the bitmap draws the per-record inclusion
	// coins and accumulates count and sum together — same visit order and
	// float64 summation order as the seed's row-slice loop.
	var included int
	var sum float64
	bm.ForEach(func(i int) {
		h := (uint64(i) + 0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
		h ^= qkey
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		if float64(h%1_000_003)/1_000_003 < s.cfg.SampleRate {
			included++
			if j >= 0 {
				sum += snap.Float(i, j)
			}
		}
	})
	switch q.Agg {
	case Count:
		return Answer{Value: float64(included) / s.cfg.SampleRate}, nil
	case Sum:
		return Answer{Value: sum / s.cfg.SampleRate}, nil
	case Avg:
		if included == 0 {
			return Answer{Denied: true, Reason: "random sample: empty sample"}, nil
		}
		return Answer{Value: sum / float64(included)}, nil
	default:
		return Answer{}, fmt.Errorf("sdcquery: unsupported aggregate %v", q.Agg)
	}
}

// audited prepares the Chin–Ozsoyoglu check: the query is answered only if
// the linear system of all answered SUM/AVG/COUNT queries, extended with
// this one, still leaves every record's confidential value undetermined.
// The aggregate and the indicator vector are computed here, before the
// lock — over the pinned snapshot, so an audit in flight reasons about one
// consistent version even while ingest continues; the would-disclose check
// plus commit is the privacy state's.
func (s *Server) audited(snap *store.Snapshot, q Query, bm *store.Bitmap, n int) (claim, error) {
	v, err := s.evalBitmap(snap, q, bm, n)
	if err != nil {
		return claim{}, err
	}
	indicator := make([]float64, snap.Rows())
	bm.ForEach(func(i int) { indicator[i] = 1 })
	key := q.Attr
	switch q.Agg {
	case Count:
		// COUNT discloses membership cardinality, not values; track it
		// under a reserved key so COUNT+AVG combinations are caught via
		// the derived SUM below.
		key = "*count*"
	case Avg:
		// AVG(set) with known |set| is SUM(set); audit the sum.
		v = v * float64(n)
	}
	c := claim{attr: key, row: auditRow{ind: indicator, ans: v}}
	c.Value = v
	if q.Agg == Avg {
		c.Value = v / float64(n)
	}
	return c, nil
}
