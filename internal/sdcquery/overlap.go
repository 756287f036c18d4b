package sdcquery

import "fmt"

// Overlap control (Dobkin, Jones & Lipton 1979): a further inference-control
// strategy for interactive statistical databases — deny any query whose
// query set overlaps a previously answered query set in more than
// MaxOverlap records. Difference attacks like the tracker need highly
// overlapping query pairs, so bounding pairwise overlap blocks them without
// maintaining the full linear system the auditor needs.

// OverlapController remembers answered query sets and enforces the bound.
//
// Two serving-scale properties, both bugfixes over the first version:
//
//   - Admit is indexed, not a history scan: an inverted index from row →
//     answered-set ids means only the sets actually sharing a row with the
//     candidate are counted, in O(Σ_{r∈rows} |sets(r)|) instead of
//     O(history · set size). Disjoint workloads admit in O(|rows|).
//
//   - History is capped (maxTracked): once the cap is reached, further NEW
//     query sets are denied — deny-when-full, not a sliding window.
//     Forgetting an answered set would re-admit exactly the difference
//     attacks overlap control exists to stop (ask A, wait for A to age out,
//     ask A∖{i}), so a full controller sacrifices availability, never the
//     overlap bound.
type OverlapController struct {
	maxOverlap int
	minSetSize int
	maxTracked int
	nAnswered  int
	// byRow maps a record index to the ids of the answered query sets
	// containing it. Answered sets hold unique rows, so the number of
	// times id appears across the candidate's rows IS |candidate ∩ set id|.
	byRow map[int][]int
	// scratch is the per-Admit id → overlap counter, retained to avoid
	// reallocating the map on every query. The server calls Admit only under
	// its privacy-state lock (privacyState.commit), so one map suffices.
	scratch map[int]int
}

// NewOverlapController builds a controller. minSetSize plays the usual
// size-restriction role; maxOverlap bounds pairwise intersections;
// maxTracked caps the answered-set history (values < 1 fall back to
// DefaultMaxTrackedQueries).
func NewOverlapController(minSetSize, maxOverlap, maxTracked int) (*OverlapController, error) {
	if minSetSize < 1 {
		return nil, fmt.Errorf("sdcquery: minSetSize must be ≥ 1, got %d", minSetSize)
	}
	if maxOverlap < 0 {
		return nil, fmt.Errorf("sdcquery: maxOverlap must be ≥ 0, got %d", maxOverlap)
	}
	if maxTracked < 1 {
		maxTracked = DefaultMaxTrackedQueries
	}
	return &OverlapController{
		maxOverlap: maxOverlap,
		minSetSize: minSetSize,
		maxTracked: maxTracked,
		byRow:      map[int][]int{},
		scratch:    map[int]int{},
	}, nil
}

// Admit decides whether a query with the given query set may be answered;
// admitted sets are remembered. rows must be sorted ascending and unique
// (QuerySet returns them that way). Not safe for concurrent use — the
// server serializes calls on its privacy-state lock.
func (oc *OverlapController) Admit(rows []int) (bool, string) {
	if len(rows) < oc.minSetSize {
		return false, fmt.Sprintf("query set size %d below %d", len(rows), oc.minSetSize)
	}
	clear(oc.scratch)
	for _, r := range rows {
		for _, id := range oc.byRow[r] {
			oc.scratch[id]++
			if ov := oc.scratch[id]; ov > oc.maxOverlap {
				return false, fmt.Sprintf("overlap %d with an answered query exceeds %d", ov, oc.maxOverlap)
			}
		}
	}
	if oc.nAnswered >= oc.maxTracked {
		return false, fmt.Sprintf("answered-query history full (%d sets tracked): refusing new query sets rather than forgetting old ones", oc.maxTracked)
	}
	id := oc.nAnswered
	oc.nAnswered++
	for _, r := range rows {
		oc.byRow[r] = append(oc.byRow[r], id)
	}
	return true, ""
}

// Answered returns how many query sets have been admitted.
func (oc *OverlapController) Answered() int { return oc.nAnswered }

// Stats reports the answered-history size and its cap.
func (oc *OverlapController) Stats() (tracked, capacity int) {
	return oc.nAnswered, oc.maxTracked
}
