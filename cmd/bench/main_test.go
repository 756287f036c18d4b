package main

import (
	"slices"
	"testing"
)

// tiny runs every section in well under a second. The PIR database's block
// count and size are not multiples of 8, so the subset mask and the
// bytewise tail are exercised too; the larger store size spans two sealed
// segments and a tail, the smaller only a tail.
var tiny = sizes{
	linkageRows: 200, mdavRows: 100,
	pirBlocks: 100, pirBlockSize: 36, cpirBits: 256, statRows: 300,
	storeRows: []int{1000, 17000}, shapes: 6,
}

// TestSectionsRunAtTinySize runs every section once at a tiny size so the
// harness cannot bit-rot: each output check must compare outputs and pass,
// and each section must record every point of its sweep. Timing gates are
// recorded but not judged; no ratio means anything at this size.
func TestSectionsRunAtTinySize(t *testing.T) {
	r := newReport(1)
	if err := r.run(tiny); err != nil {
		t.Fatal(err)
	}
	var checks, ratios int
	for _, g := range r.Gates {
		if g.Min > 0 {
			ratios++
			continue
		}
		checks++
		if !g.Pass {
			t.Errorf("%s: failed after %g outputs: %s", g.Name, g.Value, g.Detail)
		}
	}
	// Three linkage and three PIR kernels, one store check per row count;
	// the PIR scaling gate, one store speedup gate per worker count and the
	// store scaling gate.
	if want := 6 + len(tiny.storeRows); checks != want {
		t.Errorf("%d output checks, want %d", checks, want)
	}
	if want := 2 + len(storeWorkers); ratios != want {
		t.Errorf("%d timing gates, want %d", ratios, want)
	}
	if want := 1 + 6*len(kernelWorkers); len(r.Kernels) != want {
		t.Errorf("%d kernel entries, want %d", len(r.Kernels), want)
	}
	// Indexed and scan on two workloads plus batched, per worker count.
	if want := 5 * len(tiny.storeRows) * len(storeWorkers); len(r.Store) != want {
		t.Errorf("%d store entries, want %d", len(r.Store), want)
	}
}

// TestFailedListsEnforcedFailures pins the exit rule: the run fails exactly
// when an enforced gate fails, so a scaling gate on a single CPU is
// recorded without failing it.
func TestFailedListsEnforcedFailures(t *testing.T) {
	r := &Report{}
	r.ratioGate("met", 3, 2, true, "")
	r.ratioGate("single CPU", 1, 2, false, "")
	if got := r.failed(); len(got) != 0 {
		t.Fatalf("failed() = %q, want none", got)
	}
	r.ratioGate("missed", 1, 2, true, "")
	r.addCheck(&check{name: "mismatch", seen: 3, first: "workers=2 output differs"})
	r.addCheck(&check{name: "compared nothing"})
	if got, want := r.failed(), []string{"missed", "mismatch", "compared nothing"}; !slices.Equal(got, want) {
		t.Fatalf("failed() = %q, want %q", got, want)
	}
}
