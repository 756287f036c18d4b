package sdcquery

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/dp"
	"privacy3d/internal/obs"
	"privacy3d/internal/sdc"
	"privacy3d/internal/store"
)

// maxBodyBytes caps request bodies on every POST surface; oversized bodies
// are refused with a clean 413 via http.MaxBytesReader.
const maxBodyBytes = 1 << 16

// DefaultBatchMax bounds the queries one POST /querybatch request may
// carry (HandlerConfig.BatchMax overrides). The cap exists for the same
// reason as maxBodyBytes: a single request must not be able to schedule
// unbounded work.
const DefaultBatchMax = 256

// HTTP front end for the protected statistical database, so the "owner sees
// every query" property of Section 3 is tangible: the /log endpoint IS the
// owner's complete view of the users' activity.
//
//	POST /query   — structured JSON query
//	POST /sql     — raw query text in the paper's dialect
//	POST /protect — mask the served microdata with a registered sdc method
//	               (owner-only: requires the configured bearer token)
//	GET  /log     — the owner's query log
//	GET  /metrics — request/outcome counters (when built with a Registry)
//
// /query and /sql are the untrusted-user surface and go through the
// server's inference controls. /protect is an owner operation — the caller
// chooses method, parameters and seed, so anyone allowed to call it can
// reconstruct the microdata (a degenerate parameterisation, or averaging
// seeded releases, returns the original values). It therefore requires
// HandlerConfig.OwnerToken and is disabled when no token is configured, so
// mounting the handler can never silently widen the user-facing API into a
// raw-data oracle. Released datasets additionally have Identifier-role
// columns stripped: direct identifiers never ship in a microdata release.
//
// All error responses are JSON objects {"error": "..."} with a correct
// status code: 400 for malformed input, 401/403 for missing or bad owner
// credentials, 405 for a wrong method (with an Allow header), 404 for an
// unknown path.

// QueryJSON is the structured wire format of /query.
type QueryJSON struct {
	Agg   string     `json:"agg"`  // COUNT, SUM or AVG
	Attr  string     `json:"attr"` // ignored for COUNT
	Where []CondJSON `json:"where"`
}

// CondJSON is one predicate condition on the wire. Str marks the condition
// as a string comparison even when S is empty — without it a predicate on
// the empty string is indistinguishable from one on the number 0. Clients
// sending a non-empty S may omit it.
type CondJSON struct {
	Col string  `json:"col"`
	Op  string  `json:"op"` // <, <=, >, >=, =, !=
	V   float64 `json:"v"`
	S   string  `json:"s"`
	Str bool    `json:"str,omitempty"`
}

// AnswerJSON is the response of /query and /sql. The numeric fields are
// deliberately NOT omitempty: a legitimate answer of 0 (COUNT over an empty
// query set, a perturbed value landing on 0) must serialize as an explicit
// "value":0, distinguishable from an absent field. The ε fields follow the
// same rule via pointers: they appear exactly when the answer was released
// under differential privacy, and a remaining budget of 0 (this query spent
// the last ε) serializes as an explicit "epsilon_remaining":0.
type AnswerJSON struct {
	Denied   bool    `json:"denied,omitempty"`
	Reason   string  `json:"reason,omitempty"`
	Value    float64 `json:"value"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Interval bool    `json:"interval,omitempty"`
	// Epsilon is the ε this answer debited; EpsilonRemaining the
	// principal's unspent ε after the debit. Both are nil unless the
	// server protection is DifferentialPrivacy.
	Epsilon          *float64 `json:"epsilon,omitempty"`
	EpsilonRemaining *float64 `json:"epsilon_remaining,omitempty"`
}

// BatchRequestJSON is the wire format of POST /querybatch: a list of
// structured queries answered against one pinned snapshot, with the
// answer-cache misses evaluated in one sharded column sweep.
type BatchRequestJSON struct {
	Queries []QueryJSON `json:"queries"`
}

// BatchItemJSON is one element of a /querybatch response: either the
// query's answer (same field contract as AnswerJSON) or its error. The
// batch degrades per item — one malformed or budget-refused query never
// fails its neighbours.
type BatchItemJSON struct {
	AnswerJSON
	Error string `json:"error,omitempty"`
}

// BatchResponseJSON carries the per-query results of POST /querybatch in
// request order.
type BatchResponseJSON struct {
	Answers []BatchItemJSON `json:"answers"`
}

// ProtectRequest is the wire format of POST /protect: the name of a
// registered sdc method plus its uniform parameters. The seed makes the
// release reproducible — the same request always yields the same bytes.
type ProtectRequest struct {
	Method  string             `json:"method"`
	Seed    uint64             `json:"seed"`
	Target  string             `json:"target,omitempty"`
	Columns []int              `json:"columns,omitempty"`
	Params  map[string]float64 `json:"params,omitempty"`
}

// ProtectResponse carries the uniform masking report and the released
// microdata as CSV.
type ProtectResponse struct {
	Report sdc.Report `json:"report"`
	CSV    string     `json:"csv"`
}

// errorJSON is the uniform error body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a flat struct to a ResponseWriter cannot fail in a way the
	// handler can still report; ignore the error deliberately.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorJSON{Error: msg})
}

// requireMethod answers 405 with an Allow header unless the request uses
// the given method.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use %s", r.Method, method))
		return false
	}
	return true
}

// ToQuery converts the wire format into a Query.
func (q QueryJSON) ToQuery() (Query, error) {
	var out Query
	switch q.Agg {
	case "COUNT":
		out.Agg = Count
	case "SUM":
		out.Agg = Sum
	case "AVG":
		out.Agg = Avg
	default:
		return out, fmt.Errorf("sdcquery: unknown aggregate %q", q.Agg)
	}
	out.Attr = q.Attr
	for _, c := range q.Where {
		var op Op
		switch c.Op {
		case "<":
			op = Lt
		case "<=":
			op = Le
		case ">":
			op = Gt
		case ">=":
			op = Ge
		case "=", "==":
			op = Eq
		case "!=":
			op = Ne
		default:
			return out, fmt.Errorf("sdcquery: unknown operator %q", c.Op)
		}
		out.Where = append(out.Where, Cond{Col: c.Col, Op: op, V: c.V, S: c.S, Str: c.Str || c.S != ""})
	}
	return out, nil
}

// HandlerConfig configures the HTTP API surface.
type HandlerConfig struct {
	// Registry, when non-nil, receives answer-outcome counters and the
	// query-log depth gauge, and is mounted at GET /metrics.
	Registry *obs.Registry
	// OwnerToken is the bearer token required by POST /protect. When empty,
	// /protect is disabled (403): masked releases expose record-level
	// microdata and must never be reachable by the untrusted /query clients.
	OwnerToken string
	// RateLimit enables per-client token-bucket admission control on the
	// query surface (/query and /sql): each client is admitted RateLimit
	// requests/second sustained, with bursts up to RateBurst. Excess
	// requests are shed with 429 + Retry-After before touching the server.
	// Clients are identified by the principal header when present, else by
	// remote address. 0 disables admission control.
	RateLimit float64
	// RateBurst is the bucket depth; < 1 defaults to max(2·RateLimit, 1).
	RateBurst int
	// BatchMax caps the queries one POST /querybatch request may carry
	// (default DefaultBatchMax; negative disables the batch endpoint).
	// Admission control charges a batch once — the cap is what bounds the
	// work a single admitted request can schedule.
	BatchMax int
}

// NewHTTPHandler wraps a Server in the HTTP API without metrics and with
// /protect disabled.
func NewHTTPHandler(srv *Server) http.Handler { return NewHandler(srv, HandlerConfig{}) }

// NewObservedHandler wraps a Server in the HTTP API with metrics and with
// /protect disabled.
func NewObservedHandler(srv *Server, reg *obs.Registry) http.Handler {
	return NewHandler(srv, HandlerConfig{Registry: reg})
}

// authorizeOwner checks the request's Authorization header against the
// configured owner token in constant time. It writes the error response and
// returns false when the request is not authorized.
func authorizeOwner(w http.ResponseWriter, r *http.Request, token string) bool {
	if token == "" {
		writeError(w, http.StatusForbidden,
			"POST /protect is disabled: the server was started without an owner token")
		return false
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	// Compare digests so the comparison is constant-time regardless of
	// token length.
	want := sha256.Sum256([]byte(token))
	have := sha256.Sum256([]byte(got))
	if !ok || subtle.ConstantTimeCompare(want[:], have[:]) != 1 {
		w.Header().Set("WWW-Authenticate", `Bearer realm="owner"`)
		writeError(w, http.StatusUnauthorized,
			"POST /protect requires the owner bearer token")
		return false
	}
	return true
}

// PrincipalHeader carries the caller's budget-accounting identity on
// /query and /sql requests. It is required when the server protection is
// DifferentialPrivacy (400 without it) and ignored otherwise. In a real
// deployment the header would be set by an authenticating proxy; the
// server trusts it as-is.
const PrincipalHeader = "X-Privacy3D-Principal"

// epsilonRemainingHeader surfaces the principal's post-debit budget on DP
// answers and budget refusals, so clients can pace themselves without
// parsing bodies.
const epsilonRemainingHeader = "X-Privacy3D-Epsilon-Remaining"

// NewHandler wraps a Server in the HTTP API. When cfg.Registry is non-nil it
// counts answer outcomes (answered / denied / interval / error, plus the
// distinct budget-exhausted and no-principal refusals of differential
// privacy), exposes the query-log depth as a gauge — the tracker-relevant
// signal: how much history an auditor must reason over — and, under
// DifferentialPrivacy, two bounded aggregates of the budget ledger:
// dp_principals (principals charged) and dp_epsilon_spent (ε debited over
// all of them). POST /protect is mounted but answers 403 unless
// cfg.OwnerToken is set.
func NewHandler(srv *Server, cfg HandlerConfig) http.Handler {
	reg := cfg.Registry
	outcome := func(name string) {
		if reg != nil {
			reg.Counter(obs.Label("sdcquery_answers_total", "outcome", name)).Inc()
		}
	}
	if reg != nil {
		reg.Gauge("sdcquery_log_depth", func() float64 { return float64(srv.LogDepth()) })
		reg.Gauge("sdcquery_log_dropped", func() float64 {
			_, dropped, _ := srv.LogStats()
			return float64(dropped)
		})
		reg.Gauge("sdcquery_cache_hits", func() float64 {
			hits, _, _, _ := srv.CacheStats()
			return float64(hits)
		})
		reg.Gauge("sdcquery_cache_misses", func() float64 {
			_, misses, _, _ := srv.CacheStats()
			return float64(misses)
		})
		reg.Gauge("sdcquery_cache_entries", func() float64 {
			_, _, entries, _ := srv.CacheStats()
			return float64(entries)
		})
		reg.Gauge("store_shards", func() float64 { return float64(srv.Shards()) })
		reg.Gauge("store_scratch_hit_rate", func() float64 {
			gets, news := srv.ScratchStats()
			if gets == 0 {
				return 0
			}
			return float64(gets-news) / float64(gets)
		})
		reg.Gauge("sdcquery_batches", func() float64 {
			batches, _ := srv.BatchStats()
			return float64(batches)
		})
		reg.Gauge("sdcquery_batch_width_avg", func() float64 {
			batches, queries := srv.BatchStats()
			if batches == 0 {
				return 0
			}
			return float64(queries) / float64(batches)
		})
		if srv.priv.ledger != nil {
			reg.Gauge("dp_principals", func() float64 { return float64(len(srv.BudgetPrincipals())) })
			reg.Gauge("dp_epsilon_spent", srv.priv.epsilonSpent)
		}
	}
	// Admission control: shed excess per-client load at the door. The
	// in-flight gauge is the serving queue depth — requests admitted but
	// not yet answered.
	var inflight atomic.Int64
	var buckets *obs.TokenBuckets
	if cfg.RateLimit > 0 {
		var err error
		if buckets, err = obs.NewTokenBuckets(cfg.RateLimit, cfg.RateBurst, 0); err != nil {
			panic(err) // unreachable: RateLimit > 0 is the only requirement
		}
	}
	if reg != nil {
		reg.Gauge("sdcquery_inflight_requests", func() float64 { return float64(inflight.Load()) })
		if buckets != nil {
			reg.Gauge("sdcquery_admission_clients", func() float64 { return float64(buckets.Clients()) })
		}
	}
	admitted := func(decision string) {
		if reg != nil {
			reg.Counter(obs.Label("sdcquery_admission_total", "decision", decision)).Inc()
		}
	}
	// admit applies admission control; a false return means the 429 has
	// been written.
	admit := func(w http.ResponseWriter, r *http.Request) bool {
		if buckets == nil {
			return true
		}
		client := r.Header.Get(PrincipalHeader)
		if client == "" {
			client = r.RemoteAddr
			if host, _, err := net.SplitHostPort(client); err == nil {
				client = host
			}
		}
		ok, retry := buckets.Allow(client)
		if !ok {
			admitted("throttled")
			secs := int(math.Ceil(retry.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("admission control: client %q over %g requests/s; retry in %s", client, cfg.RateLimit, retry.Round(time.Millisecond)))
			return false
		}
		admitted("admitted")
		return true
	}
	// readBody enforces the body cap via http.MaxBytesReader: an oversized
	// body is a clean 413 (with its own outcome label), not a JSON
	// unexpected-EOF 400.
	tooLarge := func(w http.ResponseWriter, err error) bool {
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) {
			return false
		}
		outcome("too-large")
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		return true
	}
	// released renders an answer on the wire and counts its outcome; the
	// single-query and batch paths share it.
	released := func(a Answer) AnswerJSON {
		aj := AnswerJSON{
			Denied: a.Denied, Reason: a.Reason, Value: a.Value,
			Lo: a.Lo, Hi: a.Hi, Interval: a.Interval,
		}
		switch {
		case a.Denied:
			outcome("denied")
		case a.Interval:
			outcome("interval")
		default:
			outcome("answered")
		}
		if a.Budgeted {
			eps, rem := a.Epsilon, a.EpsilonRemaining
			aj.Epsilon, aj.EpsilonRemaining = &eps, &rem
		}
		return aj
	}
	answer := func(w http.ResponseWriter, r *http.Request, q Query) {
		principal := r.Header.Get(PrincipalHeader)
		a, err := srv.AskAs(principal, q)
		if err != nil {
			var be *dp.BudgetError
			switch {
			case errors.As(err, &be):
				// The budget refusal is a 429 with the remaining ε as the
				// Allow-style hint: the client learns how much (if any)
				// smaller a charge could still succeed, and nothing else.
				outcome("budget-exhausted")
				w.Header().Set(epsilonRemainingHeader, fmt.Sprintf("%g", be.Remaining))
				writeError(w, http.StatusTooManyRequests, err.Error())
			case errors.Is(err, dp.ErrNoPrincipal):
				outcome("no-principal")
				writeError(w, http.StatusBadRequest,
					fmt.Sprintf("%v; set the %s header", err, PrincipalHeader))
			case errors.Is(err, store.ErrUnreadable):
				// A segment file failed its checksum or decode: the
				// stored data is at fault, not the query.
				outcome("error")
				writeError(w, http.StatusInternalServerError, err.Error())
			default:
				outcome("error")
				writeError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		aj := released(a)
		if a.Budgeted {
			w.Header().Set(epsilonRemainingHeader, fmt.Sprintf("%g", a.EpsilonRemaining))
		}
		writeJSON(w, http.StatusOK, aj)
	}
	// batchItem renders one batch element with the same outcome accounting
	// and ε surfacing as the single-query path; only the transport differs
	// (an in-body error string instead of a per-request status code).
	batchItem := func(a Answer, err error) BatchItemJSON {
		if err != nil {
			switch {
			case errors.Is(err, dp.ErrBudgetExhausted):
				outcome("budget-exhausted")
			case errors.Is(err, dp.ErrNoPrincipal):
				outcome("no-principal")
			default:
				outcome("error")
			}
			return BatchItemJSON{Error: err.Error()}
		}
		return BatchItemJSON{AnswerJSON: released(a)}
	}
	batchMax := cfg.BatchMax
	if batchMax == 0 {
		batchMax = DefaultBatchMax
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/querybatch", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		if batchMax < 0 {
			writeError(w, http.StatusForbidden, "POST /querybatch is disabled")
			return
		}
		// One admission charge per batch: batchMax, not the rate limit, is
		// what bounds the work an admitted request can schedule.
		if !admit(w, r) {
			return
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		var br BatchRequestJSON
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&br); err != nil {
			if tooLarge(w, err) {
				return
			}
			outcome("error")
			writeError(w, http.StatusBadRequest, "malformed JSON batch: "+err.Error())
			return
		}
		if len(br.Queries) == 0 {
			writeError(w, http.StatusBadRequest, "batch carries no queries")
			return
		}
		if len(br.Queries) > batchMax {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch carries %d queries, cap is %d", len(br.Queries), batchMax))
			return
		}
		// Wire-format conversion degrades per item; only convertible
		// queries reach the server (and its log), mirroring how a malformed
		// /query body is rejected before AskAs.
		convErr := make([]error, len(br.Queries))
		qs := make([]Query, 0, len(br.Queries))
		qIdx := make([]int, 0, len(br.Queries))
		for i, qj := range br.Queries {
			q, err := qj.ToQuery()
			if err != nil {
				convErr[i] = err
				continue
			}
			qs = append(qs, q)
			qIdx = append(qIdx, i)
		}
		principal := r.Header.Get(PrincipalHeader)
		answers, errs := srv.AskBatch(principal, qs)
		resp := BatchResponseJSON{Answers: make([]BatchItemJSON, len(br.Queries))}
		for i, err := range convErr {
			if err != nil {
				outcome("error")
				resp.Answers[i] = BatchItemJSON{Error: err.Error()}
			}
		}
		for k, i := range qIdx {
			resp.Answers[i] = batchItem(answers[k], errs[k])
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		if !admit(w, r) {
			return
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		var qj QueryJSON
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&qj); err != nil {
			if tooLarge(w, err) {
				return
			}
			outcome("error")
			writeError(w, http.StatusBadRequest, "malformed JSON query: "+err.Error())
			return
		}
		q, err := qj.ToQuery()
		if err != nil {
			outcome("error")
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		answer(w, r, q)
	})
	mux.HandleFunc("/sql", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		if !admit(w, r) {
			return
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			if tooLarge(w, err) {
				return
			}
			outcome("error")
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		q, err := ParseQuery(string(body))
		if err != nil {
			outcome("error")
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		answer(w, r, q)
	})
	mux.HandleFunc("/protect", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodPost) {
			return
		}
		if !authorizeOwner(w, r, cfg.OwnerToken) {
			return
		}
		var pr ProtectRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&pr); err != nil {
			if tooLarge(w, err) {
				return
			}
			writeError(w, http.StatusBadRequest, "malformed JSON protect request: "+err.Error())
			return
		}
		// Direct identifiers never ship in a microdata release, whatever the
		// masking method targets; stripping them before masking keeps the
		// Report's column indices consistent with the released schema (the
		// request's columns/target likewise address the identifier-free view).
		served, err := srv.Dataset()
		if err != nil {
			// A segment file failed its checksum or decode: the stored
			// data is at fault, not the request.
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		release := served.DropRole(dataset.Identifier)
		// The request context carries the middleware timeout and the client
		// connection: a dropped client or server drain cancels the masking
		// run at its next chunk boundary instead of burning cores.
		masked, rep, err := sdc.ApplySeed(r.Context(), pr.Method, release, sdc.Params{
			Target: pr.Target, Columns: pr.Columns, Values: pr.Params,
		}, pr.Seed)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err.Error())
			return
		}
		var csv strings.Builder
		if err := masked.WriteCSV(&csv); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, ProtectResponse{Report: rep, CSV: csv.String()})
	})
	mux.HandleFunc("/log", func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for i, q := range srv.Log() {
			fmt.Fprintf(w, "%4d  %s\n", i+1, q)
		}
	})
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown path "+r.URL.Path)
	})
	return mux
}
