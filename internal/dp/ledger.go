package dp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrBudgetExhausted is the sentinel matched (via errors.Is) by every
// budget-refusal the Ledger issues. The concrete error is a *BudgetError
// carrying the principal and the remaining ε, so callers can surface
// "remaining budget" hints without string-matching.
var ErrBudgetExhausted = errors.New("dp: epsilon budget exhausted")

// ErrNoPrincipal reports a debit attempt with an empty principal: budget
// accounting is per principal, so an unidentified caller cannot be charged
// — and therefore cannot be answered.
var ErrNoPrincipal = errors.New("dp: no principal identified for budget accounting")

// BudgetError is the typed refusal of a check-and-debit whose charge would
// overdraw the principal's budget. It wraps ErrBudgetExhausted.
type BudgetError struct {
	Principal string
	Dataset   string
	Requested float64 // the ε the query needed
	Remaining float64 // the ε still unspent
}

// Error renders the refusal with the hint callers surface to users.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("dp: principal %q has ε=%g remaining on dataset %q, query needs ε=%g",
		e.Principal, e.Remaining, e.Dataset, e.Requested)
}

// Unwrap makes errors.Is(err, ErrBudgetExhausted) hold.
func (e *BudgetError) Unwrap() error { return ErrBudgetExhausted }

// Ledger is the per-(principal, dataset) ε-budget account book of a DP
// query server. Every answered query debits its ε cost atomically: the
// check (enough budget?) and the debit happen under one lock, so
// concurrent queries can never jointly overspend a budget, and a refused
// query debits nothing.
//
// A Ledger is safe for concurrent use: one mutex guards one map. The query
// server debits it only from its privacy-state commit, which is serialized
// already, so striping the map would buy nothing there.
type Ledger struct {
	budget float64
	mu     sync.Mutex
	spent  map[string]float64
}

// NewLedger creates a ledger granting every (principal, dataset) pair the
// same total ε budget. budget must be > 0.
func NewLedger(budget float64) (*Ledger, error) {
	if !(budget > 0) {
		return nil, fmt.Errorf("dp: ledger budget must be > 0, got %g", budget)
	}
	return &Ledger{budget: budget, spent: map[string]float64{}}, nil
}

// Budget returns the per-principal total ε.
func (l *Ledger) Budget() float64 { return l.budget }

// key canonically joins principal and dataset; NUL never occurs in either
// (HTTP headers and flag values cannot carry it), so the join is unambiguous.
func key(principal, dataset string) string { return principal + "\x00" + dataset }

// Charge atomically checks and debits eps from the (principal, dataset)
// budget. On success it returns the ε remaining after the debit. When the
// charge would overdraw the budget it debits nothing and returns a
// *BudgetError (errors.Is ErrBudgetExhausted); an empty principal returns
// ErrNoPrincipal; eps must be > 0.
func (l *Ledger) Charge(principal, dataset string, eps float64) (float64, error) {
	if principal == "" {
		return 0, ErrNoPrincipal
	}
	if !(eps > 0) {
		return 0, fmt.Errorf("dp: charge must be > 0, got %g", eps)
	}
	k := key(principal, dataset)
	l.mu.Lock()
	defer l.mu.Unlock()
	spent := l.spent[k]
	// The comparison tolerates no floating slack: a budget of 1.0 admits
	// exactly ten ε=0.1 charges only if the running sum stays ≤ budget,
	// which accumulated rounding can break either way; what the ledger
	// guarantees is spent ≤ budget, never overspend.
	if spent+eps > l.budget {
		return 0, &BudgetError{Principal: principal, Dataset: dataset,
			Requested: eps, Remaining: l.budget - spent}
	}
	spent += eps
	l.spent[k] = spent
	return l.budget - spent, nil
}

// Remaining returns the unspent ε of (principal, dataset). A principal the
// ledger has never charged has the full budget remaining.
func (l *Ledger) Remaining(principal, dataset string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.budget - l.spent[key(principal, dataset)]
}

// Spent returns the ε already debited from (principal, dataset).
func (l *Ledger) Spent(principal, dataset string) float64 {
	return l.budget - l.Remaining(principal, dataset)
}

// Principals returns every principal the ledger has charged on the given
// dataset, sorted.
func (l *Ledger) Principals(dataset string) []string {
	suffix := "\x00" + dataset
	var out []string
	l.mu.Lock()
	for k := range l.spent {
		if p, ok := strings.CutSuffix(k, suffix); ok {
			out = append(out, p)
		}
	}
	l.mu.Unlock()
	sort.Strings(out)
	return out
}
