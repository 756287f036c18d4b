package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/obs"
	"privacy3d/internal/sdc"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// The -protect flag of serve/attack/query names a query-protection strategy
// of the sdcquery layer; parser, help text and error messages all derive
// from sdcquery.ProtectionNames, so they cannot drift apart.

// protectionNames lists every accepted -protect value, comma-separated.
func protectionNames() string {
	return strings.Join(sdcquery.ProtectionNames(), ", ")
}

// protectHelp is the shared -protect usage string.
func protectHelp(doing string) string {
	return fmt.Sprintf("%s: %s", doing, protectionNames())
}

func parseProtection(name string) (sdcquery.Protection, error) {
	return sdcquery.ParseProtection(name)
}

// dpFlags registers the differential-privacy flags shared by serve and
// query — the extra flags the `dp` row of sdcquery.ProtectionTable
// documents. They are ignored under every other -protect mode.
func dpFlags(fs *flag.FlagSet) (epsilon, delta, budget *float64) {
	epsilon = fs.Float64("epsilon", 0.5, "dp: per-query privacy cost ε (> 0)")
	delta = fs.Float64("delta", 0, "dp: 0 uses the Laplace mechanism; 0<δ<1 the Gaussian one")
	budget = fs.Float64("budget", 10, "dp: total ε each principal may spend before queries are refused")
	return epsilon, delta, budget
}

// serveOpts holds the parsed serve flags. The registration lives in
// serveFlags (not inline in cmdServe) so the lint suite can pin the full
// serve flag surface in testdata/serveflags.golden.
type serveOpts struct {
	in, schema, protect, ownerToken, addr *string
	minSize                               *int
	epsilon, delta, budget                *float64
	seed                                  *uint64
	logCap, cacheCap                      *int
	rateLimit                             *float64
	rateBurst                             *int
	reqTimeout, grace                     *time.Duration
	workers                               *int
	segment                               *int
	batchMax                              *int
	datadir                               *string
	memcap                                *int64
}

// serveFlags registers every flag of the serve command on fs.
func serveFlags(fs *flag.FlagSet) *serveOpts {
	o := &serveOpts{}
	o.in = fs.String("in", "", "input CSV file (default: the paper's Dataset 2)")
	o.schema = fs.String("schema", "", "schema as name:role:kind[,...]")
	o.protect = fs.String("protect", "auditing", protectHelp("protection to serve under"))
	o.ownerToken = fs.String("ownertoken", os.Getenv("PRIVACY3D_OWNER_TOKEN"),
		"bearer token gating POST /protect (empty disables the endpoint; defaults to $PRIVACY3D_OWNER_TOKEN)")
	o.addr = fs.String("addr", ":8733", "listen address")
	o.minSize = fs.Int("minsize", 3, "query-set-size threshold")
	o.epsilon, o.delta, o.budget = dpFlags(fs)
	o.seed = fs.Uint64("seed", 20070923, "noise seed (dp answers are a pure function of seed, principal and query)")
	o.logCap = fs.Int("querylogcap", sdcquery.DefaultQueryLogCap,
		"owner query-log retention: newest entries kept for GET /log (0 uses the default; -1 retains everything, unbounded)")
	o.cacheCap = fs.Int("cachecap", sdcquery.DefaultAnswerCacheCap,
		"answer-cache entries (0 uses the default; -1 disables caching)")
	o.rateLimit = fs.Float64("ratelimit", 0,
		"per-client admission rate in requests/s; excess gets 429 + Retry-After (0 disables admission control)")
	o.rateBurst = fs.Int("burst", 0, "admission burst: tokens an idle client may accumulate (0 derives from -ratelimit)")
	o.reqTimeout = fs.Duration("reqtimeout", 10*time.Second, "per-request timeout")
	o.grace = fs.Duration("grace", obs.DefaultShutdownGrace, "graceful-shutdown drain window")
	o.workers = workersFlag(fs)
	o.segment = fs.Int("segment", 0,
		"columnar store rows per sealed segment, a multiple of 64 in [64, 65536] (0 uses the default, 8192)")
	o.batchMax = fs.Int("batchmax", 0,
		"queries accepted per POST /querybatch request (0 uses the default, 256; negative disables the endpoint)")
	o.datadir = fs.String("datadir", "",
		"directory for a durable columnar store (empty serves memory-only; a directory already holding a store is recovered, and -in must then be unset)")
	o.memcap = fs.Int64("memcap", 0,
		"with -datadir: resident-byte cap for sealed segments — segments beyond it spill to disk and answers stay byte-identical (0 keeps everything resident)")
	return o
}

// validateServeStorage rejects bad storage flags before any data is loaded,
// so misconfiguration surfaces as one clean error instead of a panic or a
// half-built store directory. It returns whether datadir already holds a
// store (the recovery path).
func validateServeStorage(o *serveOpts) (recover bool, err error) {
	if *o.memcap < 0 {
		return false, fmt.Errorf("serve: -memcap must be >= 0, got %d", *o.memcap)
	}
	if *o.datadir == "" {
		if *o.memcap > 0 {
			return false, fmt.Errorf("serve: -memcap needs -datadir (there is no disk tier to spill to)")
		}
		return false, nil
	}
	if err := os.MkdirAll(*o.datadir, 0o755); err != nil {
		return false, fmt.Errorf("serve: -datadir: %w", err)
	}
	probe, err := os.CreateTemp(*o.datadir, ".probe-*")
	if err != nil {
		return false, fmt.Errorf("serve: -datadir %s is not writable: %w", *o.datadir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	if store.Exists(*o.datadir) {
		if *o.in != "" {
			return false, fmt.Errorf("serve: -datadir %s already holds a store; recovery serves its committed rows, so -in must be unset (or point -datadir at a fresh directory)", *o.datadir)
		}
		return true, nil
	}
	return false, nil
}

// cmdServe exposes a protected statistical database over HTTP: POST /query
// (structured JSON), POST /sql (raw query text); GET /log shows the owner's
// view of all submitted queries (making the absence of user privacy
// tangible); GET /metrics exposes request, latency and answer-outcome
// counters. The query surface is cached, admission-controlled and
// body-size-limited; the server runs with hardened timeouts and drains
// in-flight queries on SIGINT/SIGTERM before exiting 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	o := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, schema, protect, ownerToken, addr := o.in, o.schema, o.protect, o.ownerToken, o.addr
	minSize, epsilon, delta, budget, seed := o.minSize, o.epsilon, o.delta, o.budget, o.seed
	logCap, cacheCap, rateLimit, rateBurst := o.logCap, o.cacheCap, o.rateLimit, o.rateBurst
	grace, workers := o.grace, o.workers
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	recovery, err := validateServeStorage(o)
	if err != nil {
		return err
	}
	prot, err := parseProtection(*protect)
	if err != nil {
		return err
	}
	cfg := sdcquery.Config{
		Protection: prot, MinSetSize: *minSize, Seed: *seed,
		Epsilon: *epsilon, Delta: *delta, EpsilonBudget: *budget,
		QueryLogCap: *logCap, AnswerCacheCap: *cacheCap, SegmentSize: *o.segment,
	}
	var srv *sdcquery.Server
	if recovery {
		st, err := store.Open(*o.datadir, store.Options{SegmentSize: *o.segment, MemCap: *o.memcap})
		if err != nil {
			return fmt.Errorf("serve: recover %s: %w", *o.datadir, err)
		}
		srv, err = sdcquery.NewServerFromStore(st, cfg)
		if err != nil {
			st.Close()
			return err
		}
	} else {
		var d *dataset.Dataset
		if *in == "" {
			d = dataset.Dataset2()
		} else {
			d, err = loadCSV(*in, *schema)
			if err != nil {
				return err
			}
		}
		cfg.DataDir, cfg.MemCap = *o.datadir, *o.memcap
		srv, err = sdcquery.NewServer(d, cfg)
		if err != nil {
			return err
		}
	}
	// Close commits the durable store's final state (tail included) and
	// releases its directory lock once the server has drained.
	defer srv.Close()
	logger := log.Default()
	reg := obs.NewRegistry()
	obs.RegisterParallelism(reg)
	obs.RegisterStoreTiers(reg)
	// Route per-method masking metrics (sdc_apply_total, sdc_apply_seconds)
	// from the /protect endpoint into this registry.
	sdc.Instrument(reg)
	handler := serveHandler(srv, o, reg, logger)
	logger.Printf("serving %d records with %s protection on %s", srv.Rows(), prot, *addr)
	if *o.datadir != "" {
		mode := "created"
		if recovery {
			mode = "recovered"
		}
		logger.Printf("durable store %s in %s (memcap %d bytes; tier gauges at GET /metrics)", mode, *o.datadir, *o.memcap)
	}
	if prot == sdcquery.DifferentialPrivacy {
		logger.Printf("dp: ε=%g per query, budget %g per principal; queries must carry the %s header",
			*epsilon, *budget, sdcquery.PrincipalHeader)
	}
	logger.Printf("the owner sees every query at GET /log — the no-user-privacy side of Section 3")
	if *ownerToken != "" {
		logger.Printf("owner-gated masked releases at POST /protect (methods: %s)", strings.Join(sdc.Names(), ", "))
	} else {
		logger.Printf("POST /protect disabled — set -ownertoken (or $PRIVACY3D_OWNER_TOKEN) to enable owner-side masked releases")
	}
	if *rateLimit > 0 {
		logger.Printf("admission control: %g requests/s per client (burst %d); excess gets 429 + Retry-After", *rateLimit, *rateBurst)
	}
	logger.Printf("request and denial-rate counters at GET /metrics")
	return obs.Run(obs.NewServer(*addr, handler), logger, *grace)
}

// serveHandler wraps the HTTP API in the serve command's middleware chain.
// Instrument names every route sdcquery.NewHandler mounts, so each gets
// its own http_requests_total and http_request_seconds series; any other
// path is counted as endpoint="other".
func serveHandler(srv *sdcquery.Server, o *serveOpts, reg *obs.Registry, logger *log.Logger) http.Handler {
	return obs.Chain(sdcquery.NewHandler(srv, sdcquery.HandlerConfig{
		Registry: reg, OwnerToken: *o.ownerToken,
		RateLimit: *o.rateLimit, RateBurst: *o.rateBurst,
		BatchMax: *o.batchMax,
	}),
		obs.Logging(logger),
		obs.Instrument(reg, "/query", "/querybatch", "/sql", "/protect", "/log", "/metrics"),
		obs.Recover(reg, logger),
		obs.Timeout(*o.reqTimeout),
	)
}

// cmdAttack demonstrates the Schlörer tracker against a protected server.
func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	in := fs.String("in", "", "input CSV file (default: the paper's Dataset 2)")
	schema := fs.String("schema", "", "schema as name:role:kind[,...]")
	protect := fs.String("protect", "size", protectHelp("protection to attack"))
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	var d *dataset.Dataset
	var err error
	if *in == "" {
		d = dataset.Dataset2()
	} else {
		d, err = loadCSV(*in, *schema)
		if err != nil {
			return err
		}
	}
	prot, err := parseProtection(*protect)
	if err != nil {
		return err
	}
	srv, err := sdcquery.NewServer(d, sdcquery.Config{Protection: prot})
	if err != nil {
		return err
	}
	// The canonical target: the paper's small-and-heavy respondent of
	// Dataset 2, pinned by height < 176 ∧ weight > 105.
	tr := sdcquery.NewTracker(srv,
		sdcquery.Predicate{{Col: "height", Op: sdcquery.Lt, V: 176}},
		sdcquery.Cond{Col: "weight", Op: sdcquery.Gt, V: 105})
	res, err := tr.Infer("blood_pressure")
	if err != nil {
		fmt.Printf("tracker attack BLOCKED by %s protection: %v\n", prot, err)
		return nil
	}
	fmt.Printf("tracker attack SUCCEEDED against %s protection using %d queries\n", prot, res.Queries)
	fmt.Printf("inferred: the target predicate matches %.0f respondent(s) with blood pressure sum %.1f\n",
		res.Count, res.Sum)
	if res.Count == 1 {
		fmt.Printf("→ the unique respondent's confidential blood pressure is %.1f mmHg\n", res.Sum)
	}
	return nil
}

// cmdQuery evaluates one SQL-ish statistical query against a CSV (or the
// built-in Dataset 2) under a chosen protection.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "input CSV file (default: the paper's Dataset 2)")
	schema := fs.String("schema", "", "schema as name:role:kind[,...]")
	protect := fs.String("protect", "none", protectHelp("protection to apply"))
	q := fs.String("q", "", "query, e.g. \"SELECT AVG(blood_pressure) WHERE height < 165\"")
	principal := fs.String("principal", "", "dp: budget-accounting identity the query is asked as")
	epsilon, delta, budget := dpFlags(fs)
	seed := fs.Uint64("seed", 20070923, "noise seed (dp answers are a pure function of seed, principal and query)")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := applyWorkers(*workers); err != nil {
		return err
	}
	var d *dataset.Dataset
	var err error
	if *in == "" {
		d = dataset.Dataset2()
	} else {
		d, err = loadCSV(*in, *schema)
		if err != nil {
			return err
		}
	}
	prot, err := parseProtection(*protect)
	if err != nil {
		return err
	}
	srv, err := sdcquery.NewServer(d, sdcquery.Config{
		Protection: prot, Seed: *seed,
		Epsilon: *epsilon, Delta: *delta, EpsilonBudget: *budget,
	})
	if err != nil {
		return err
	}
	query, err := sdcquery.ParseQuery(*q)
	if err != nil {
		return err
	}
	a, err := srv.AskAs(*principal, query)
	if err != nil {
		return err
	}
	switch {
	case a.Denied:
		fmt.Printf("DENIED: %s\n", a.Reason)
	case a.Interval:
		fmt.Printf("[%g, %g]\n", a.Lo, a.Hi)
	case a.Budgeted:
		fmt.Printf("%g (spent ε=%g, ε=%g remaining)\n", a.Value, a.Epsilon, a.EpsilonRemaining)
	default:
		fmt.Printf("%g\n", a.Value)
	}
	return nil
}
