package sdcquery

import (
	"math/rand/v2"
	"testing"

	"privacy3d/internal/dataset"
)

func TestOverlapControllerBasics(t *testing.T) {
	oc, err := NewOverlapController(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := oc.Admit([]int{1, 2, 3}); !ok {
		t.Fatal("first query should be admitted")
	}
	// Disjoint set: fine.
	if ok, _ := oc.Admit([]int{4, 5, 6}); !ok {
		t.Error("disjoint query denied")
	}
	// Overlap of exactly 1: allowed at MaxOverlap 1.
	if ok, _ := oc.Admit([]int{3, 7, 8}); !ok {
		t.Error("overlap-1 query denied with MaxOverlap 1")
	}
	// Overlap of 2 with the first: denied.
	if ok, reason := oc.Admit([]int{1, 2, 9}); ok {
		t.Error("overlap-2 query admitted")
	} else if reason == "" {
		t.Error("denial without reason")
	}
	// Too small: denied and not remembered.
	before := oc.Answered()
	if ok, _ := oc.Admit([]int{42}); ok {
		t.Error("undersized query admitted")
	}
	if oc.Answered() != before {
		t.Error("denied query was remembered")
	}
}

func TestOverlapControllerValidation(t *testing.T) {
	if _, err := NewOverlapController(0, 1, 0); err == nil {
		t.Error("accepted minSetSize 0")
	}
	if _, err := NewOverlapController(1, -1, 0); err == nil {
		t.Error("accepted negative overlap")
	}
}

func TestOverlapControllerDenyWhenFull(t *testing.T) {
	oc, err := NewOverlapController(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := oc.Admit([]int{1}); !ok {
		t.Fatal("first admit failed")
	}
	if ok, _ := oc.Admit([]int{2}); !ok {
		t.Fatal("second admit failed")
	}
	ok, reason := oc.Admit([]int{3})
	if ok {
		t.Error("admit beyond maxTracked succeeded")
	}
	if reason == "" {
		t.Error("full-history denial without reason")
	}
	if tracked, capacity := oc.Stats(); tracked != 2 || capacity != 2 {
		t.Errorf("Stats() = (%d, %d), want (2, 2)", tracked, capacity)
	}
	// Denied-when-full queries are not remembered.
	if oc.Answered() != 2 {
		t.Errorf("Answered() = %d after full denial, want 2", oc.Answered())
	}
}

// TestOverlapIndexMatchesReference drives the inverted-index Admit and an
// exhaustive sortedOverlap reference over the same random workload and
// requires identical admit/deny decisions at every step.
func TestOverlapIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	const universe = 40
	oc, err := NewOverlapController(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var answered [][]int
	refAdmit := func(rows []int) bool {
		for _, prev := range answered {
			if sortedOverlap(prev, rows) > 2 {
				return false
			}
		}
		answered = append(answered, append([]int(nil), rows...))
		return true
	}
	for step := 0; step < 500; step++ {
		var rows []int
		for r := 0; r < universe; r++ {
			if rng.IntN(8) == 0 {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 {
			rows = []int{rng.IntN(universe)}
		}
		got, _ := oc.Admit(rows)
		want := refAdmit(rows)
		if got != want {
			t.Fatalf("step %d: indexed Admit(%v) = %v, reference = %v", step, rows, got, want)
		}
	}
	if oc.Answered() != len(answered) {
		t.Errorf("Answered() = %d, reference tracked %d", oc.Answered(), len(answered))
	}
}

func TestSortedOverlap(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{1, 2, 3}, []int{2, 3, 4}, 2},
		{[]int{}, []int{1}, 0},
		{[]int{5}, []int{5}, 1},
		{[]int{1, 3, 5}, []int{2, 4, 6}, 0},
	}
	for _, c := range cases {
		if got := sortedOverlap(c.a, c.b); got != c.want {
			t.Errorf("sortedOverlap(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOverlapRestrictionBlocksTracker(t *testing.T) {
	// The tracker's padded queries A and A∧¬B overlap in |A∧¬B| records —
	// far above any small MaxOverlap — so overlap control stops the attack
	// at its second query.
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: OverlapRestriction, MinSetSize: 2, MaxOverlap: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(srv,
		Predicate{{Col: "height", Op: Lt, V: 176}},
		Cond{Col: "weight", Op: Gt, V: 105})
	if _, err := tr.Infer("blood_pressure"); err == nil {
		t.Error("overlap restriction failed to block the tracker")
	}
}

func TestOverlapRestrictionAllowsDisjointWorkload(t *testing.T) {
	srv, err := NewServer(dataset.Dataset2(), Config{Protection: OverlapRestriction, MinSetSize: 2, MaxOverlap: 0})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Ask(Query{Agg: Count, Where: Predicate{{Col: "height", Op: Lt, V: 175}}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Denied {
		t.Fatalf("first query denied: %s", a.Reason)
	}
	b, err := srv.Ask(Query{Agg: Count, Where: Predicate{{Col: "height", Op: Ge, V: 175}}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Denied {
		t.Errorf("disjoint query denied: %s", b.Reason)
	}
	if a.Value+b.Value != 9 {
		t.Errorf("counts %v + %v != 9", a.Value, b.Value)
	}
}

// sortedOverlap counts the intersection of two sorted ascending int slices:
// the reference the property tests compare the indexed Admit against.
func sortedOverlap(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
