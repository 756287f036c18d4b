package sdcquery

import (
	"fmt"
	"sync"

	"privacy3d/internal/dp"
	"privacy3d/internal/stats"
)

// privacyState is the server's one record of what it has released: the ε
// ledger (DifferentialPrivacy), the answered linear systems (Auditing) and
// the overlap controller's answered query sets (OverlapRestriction), behind
// one mutex. Every answer of a stateful
// protection passes through commit exactly once, and commit holds mu for
// its whole check-and-record, so the history grows only by answers actually
// released, in one serial order — whatever the request interleaving, it is
// the history of some serial run. Evaluation, sensitivity and noise
// derivation are pure functions of (snapshot, principal, query) and run
// before commit, outside the lock.
type privacyState struct {
	mu      sync.Mutex
	p       Protection
	ledger  *dp.Ledger // nil unless DifferentialPrivacy
	dataset string     // the ledger key's dataset (Config.DatasetID)
	epsilon float64    // the ε one fresh DP answer debits
	spent   float64    // ε debited over all principals
	// audited holds, per audited attribute, the answered linear system.
	audited map[string][]auditRow
	overlap *OverlapController
}

func newPrivacyState(cfg Config) (*privacyState, error) {
	oc, err := NewOverlapController(cfg.MinSetSize, cfg.MaxOverlap, cfg.MaxTrackedQueries)
	if err != nil {
		return nil, err
	}
	ps := &privacyState{p: cfg.Protection, dataset: cfg.DatasetID, epsilon: cfg.Epsilon,
		audited: map[string][]auditRow{}, overlap: oc}
	if cfg.Protection == DifferentialPrivacy {
		if ps.ledger, err = dp.NewLedger(cfg.EpsilonBudget); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// claim is one answer awaiting the privacy state's verdict: the answer
// computed outside the lock, and what the configured protection records
// once it is released.
type claim struct {
	Answer
	principal string   // DifferentialPrivacy: the ε account debited
	attr      string   // Auditing: the linear system the row joins
	row       auditRow // Auditing: the query's indicator and sum
	rows      []int    // OverlapRestriction: the query set
	// err is OverlapRestriction's evaluation error: a denial takes
	// precedence over it, and an admitted set stays recorded.
	err error
}

// commit is the one check-and-commit of an answer. Under mu it re-checks
// the answer cache at key ("" = uncached) — a concurrent duplicate may have
// committed first, and its answer is then re-released without a second
// charge — checks c against the history, records it when admitted, and
// fills the cache with the verdict. A denial is an Answer; an ε refusal is
// an error wrapping dp.ErrBudgetExhausted and records nothing.
func (ps *privacyState) commit(cache *answerCache, key string, c claim) (Answer, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if key != "" {
		if a, ok := cache.peek(key); ok {
			return ps.rerelease(c.principal, a), nil
		}
	}
	a := c.Answer
	switch ps.p {
	case DifferentialPrivacy:
		remaining, err := ps.ledger.Charge(c.principal, ps.dataset, ps.epsilon)
		if err != nil {
			return Answer{}, fmt.Errorf("sdcquery: %w", err)
		}
		ps.spent += ps.epsilon
		a.Budgeted, a.Epsilon, a.EpsilonRemaining = true, ps.epsilon, remaining
	case Auditing:
		if discloses(ps.audited[c.attr], c.row) {
			a = Answer{Denied: true, Reason: "auditing: answering would disclose an individual value"}
		} else {
			ps.audited[c.attr] = append(ps.audited[c.attr], c.row)
		}
	case OverlapRestriction:
		if ok, reason := ps.overlap.Admit(c.rows); !ok {
			a = Answer{Denied: true, Reason: "overlap control: " + reason}
		} else if c.err != nil {
			return Answer{}, c.err
		}
	}
	if key != "" {
		cache.put(key, a)
	}
	return a, nil
}

// rerelease refreshes a cached answer for another delivery: a budgeted
// answer reports the principal's current remaining ε. It reads the ledger
// under the ledger's own lock, so a cache hit never waits on a commit.
func (ps *privacyState) rerelease(principal string, a Answer) Answer {
	if a.Budgeted {
		a.EpsilonRemaining = ps.ledger.Remaining(principal, ps.dataset)
	}
	return a
}

// epsilonSpent returns the ε debited over all principals.
func (ps *privacyState) epsilonSpent() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.spent
}

// auditRow is one answered query: its indicator vector (at the length of
// the database when it was answered) and its answer.
type auditRow struct {
	ind []float64
	ans float64
}

// discloses reports whether the linear system of answered queries, extended
// by q, determines one record's value: each row is the query-set indicator
// vector with the answer as the right-hand side, and a value is disclosed
// when reduced row echelon form contains a row with exactly one non-zero
// coefficient.
//
// The database grows under ingest, so indicator vectors of different
// lengths coexist: a query answered when the store held n₀ rows simply has
// zero coefficients for every row ingested later (those rows were not in
// its query set by construction), so older vectors are zero-padded to the
// current width at elimination time.
func discloses(system []auditRow, q auditRow) bool {
	n := len(q.ind)
	for _, r := range system {
		n = max(n, len(r.ind))
	}
	rows := make([][]float64, 0, len(system)+1)
	for _, r := range system {
		rows = append(rows, augmentTo(r.ind, r.ans, n))
	}
	rows = append(rows, augmentTo(q.ind, q.ans, n))
	return disclosesAny(rows, n)
}

// augmentTo builds the width-n augmented row [ind… 0… | ans], zero-padding
// indicators recorded when the database was smaller.
func augmentTo(ind []float64, ans float64, n int) []float64 {
	row := make([]float64, n+1)
	copy(row, ind)
	row[n] = ans
	return row
}

func disclosesAny(rows [][]float64, n int) bool {
	stats.GaussianEliminate(rows, n)
	const eps = 1e-9
	for _, r := range rows {
		nz := 0
		for c := 0; c < n; c++ {
			if r[c] > eps || r[c] < -eps {
				nz++
				if nz > 1 {
					break
				}
			}
		}
		if nz == 1 {
			return true
		}
	}
	return false
}
