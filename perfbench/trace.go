package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// span is one timed interval of a traced request. Spans of one request
// share Req; Parent is 0 for the request's root.
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Cache marks the sdcquery.ask span "hit" or "miss".
	Cache string `json:"cache,omitempty"`
}

// tracer replays each of one client's requests on the twin. With
// recording off it only re-asks the query (keeping the twin's cache and
// ledger in step with the served server) and checks the answer; with
// recording on it also times the calls into each layer:
//
//	request
//	├── http.rtt              the HTTP round trip to the served stack
//	└── twin
//	    ├── sdcquery.decode   json.Unmarshal + QueryJSON.ToQuery
//	    └── sdcquery.ask      Server.AskAs
//	        ├── store.eval        Snapshot.Eval of the query's predicate
//	        └── store.aggregate   Snapshot.Count or Snapshot.Sum over it
//
// The store spans are recorded on answer-cache misses only, and time
// separate calls made after AskAs returns: AskAs is not instrumented, so
// its own store work is attributed by replaying it.
// The twin answers at the served server's snapshot version with the same
// principal, so the replayed calls do the work the served request did.
type tracer struct {
	twin      *served
	epoch     time.Time
	recording bool
	spans     []span
	nextID    int64
	checked   int
}

// sink keeps the aggregate calls' results live.
var sink float64

func (t *tracer) add(req, parent int64, name string, a, b time.Time) int64 {
	t.nextID++
	t.spans = append(t.spans, span{
		Req: req, ID: t.nextID, Parent: parent, Name: name,
		Start: int64(a.Sub(t.epoch)), End: int64(b.Sub(t.epoch)),
	})
	return t.nextID
}

// request replays the client's request number seq (reqBody, answered by
// respBody over [t0, t1]) on the twin. fresh reports that the principal had not asked
// this query before, i.e. that the twin's ask is an answer-cache miss.
func (t *tracer) request(c *client, seq int, reqBody, respBody []byte, fresh bool, t0, t1 time.Time) error {
	t2 := time.Now()
	q, err := decodeQuery(reqBody)
	if err != nil {
		return err
	}
	t3 := time.Now()
	a, askErr := t.twin.srv.AskAs(c.principal, q)
	t4 := time.Now()
	t.checked++
	if err := compareAnswer(a, askErr, reqBody, respBody, budget-c.spent); err != nil {
		return err
	}
	if !t.recording {
		return nil
	}
	// A cache hit never reaches the store, so only a miss replays the
	// store calls; timing them on a hit would charge the served request
	// for work it did not do.
	t5, t6 := t4, t4
	if fresh {
		snap := t.twin.st.Snapshot()
		bm, err := snap.Eval(storeConds(q))
		if err != nil {
			return err
		}
		t5 = time.Now()
		if q.Agg == sdcquery.Count {
			sink = float64(snap.Count(bm))
		} else {
			sink = snap.Sum(bm, snap.Index(q.Attr))
		}
		t6 = time.Now()
	}

	req := int64(c.id)<<32 | int64(seq)
	root := t.add(req, 0, "request", t0, t6)
	t.add(req, root, "http.rtt", t0, t1)
	tw := t.add(req, root, "twin", t2, t6)
	t.add(req, tw, "sdcquery.decode", t2, t3)
	ask := t.add(req, tw, "sdcquery.ask", t3, t4)
	t.spans[len(t.spans)-1].Cache = "hit"
	if fresh {
		t.spans[len(t.spans)-1].Cache = "miss"
		t.add(req, ask, "store.eval", t4, t5)
		t.add(req, ask, "store.aggregate", t5, t6)
	}
	return nil
}

// storeConds lowers a parsed predicate to store conditions (store.Op is
// ordinal-compatible with sdcquery.Op).
func storeConds(q sdcquery.Query) []store.Cond {
	conds := make([]store.Cond, len(q.Where))
	for i, c := range q.Where {
		conds[i] = store.Cond{Col: c.Col, Op: store.Op(c.Op), V: c.V, S: c.S, Str: c.IsString()}
	}
	return conds
}

// spanLayers derives per-request layer times, in seconds, from the spans.
// A layer's self time is its span minus the spans it calls: the HTTP
// layer's is the round trip minus the twin's AskAs; sdcquery's is AskAs
// minus the store's eval and aggregate on a cache miss (a hit calls
// neither), which leaves logging, cache, protection, noise and ledger.
func spanLayers(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	byReq := map[int64]map[string]span{}
	var order []int64
	for _, s := range spans {
		m, ok := byReq[s.Req]
		if !ok {
			m = map[string]span{}
			byReq[s.Req] = m
			order = append(order, s.Req)
		}
		m[s.Name] = s
	}
	dur := func(s span) float64 { return float64(s.End-s.Start) / 1e9 }
	for _, r := range order {
		m := byReq[r]
		rtt, ask := dur(m["http.rtt"]), dur(m["sdcquery.ask"])
		out["http.rtt"] = append(out["http.rtt"], rtt)
		out["http.self"] = append(out["http.self"], rtt-ask)
		out["sdcquery.decode"] = append(out["sdcquery.decode"], dur(m["sdcquery.decode"]))
		out["sdcquery.ask"] = append(out["sdcquery.ask"], ask)
		self := ask
		if m["sdcquery.ask"].Cache == "miss" {
			eval, agg := dur(m["store.eval"]), dur(m["store.aggregate"])
			self = ask - eval - agg
			out["store.eval"] = append(out["store.eval"], eval)
			out["store.aggregate"] = append(out["store.aggregate"], agg)
		}
		out["sdcquery.self"] = append(out["sdcquery.self"], self)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
