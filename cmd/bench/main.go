// Command bench times the parallel engines behind the paper's respondent
// and user dimensions across worker counts — record linkage and MDAV, PIR
// answering, and the statistical server's column store — checks every
// timed output against the reference it already holds, and writes one
// report with each gate's measured value and verdict:
//
//	go run ./cmd/bench -out BENCH_gates.json
//
// The report is written before the gates are judged, so a failed gate
// still leaves its numbers behind; the command then exits non-zero if any
// enforced gate failed. Every input size and threshold is a constant (see
// full): the numbers in EXPERIMENTS.md were measured on exactly these.
// Properties that time nothing — answer-cache identity under concurrency,
// ε accounting, admission control, snapshot isolation under ingest, batch
// identity at every worker count and durable reopen — are go tests of
// internal/sdcquery and internal/store.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"privacy3d/internal/par"
)

// sizes fixes every input size and timing window of a run. main runs full;
// the smoke test runs the same sections at a tiny size.
type sizes struct {
	linkageRows, mdavRows int
	// pirBlocks × pirBlockSize is the IT-PIR database, scanned whole by
	// every answer; statRows is the RangeStats scenario's dataset.
	pirBlocks, pirBlockSize, cpirBits, statRows int
	// storeRows are the store section's dataset sizes; its speedup and
	// scaling gates judge the last, which must be the largest.
	storeRows []int
	// shapes is the query count of each store workload.
	shapes int
	// window is the shortest timed window of one store measurement.
	window time.Duration
}

var full = sizes{
	linkageRows: 50000, mdavRows: 20000,
	pirBlocks: 65536, pirBlockSize: 1024, cpirBits: 1 << 18, statRows: 20000,
	storeRows: []int{100000, 1000000}, shapes: 24, window: 500 * time.Millisecond,
}

const (
	// minSpeedup is the indexed/scan QPS ratio the store must reach on
	// selective predicates at its largest row count, at every worker count.
	minSpeedup = 5
	// minScaling is the speedup the IT-PIR answer kernel and the indexed
	// store path must reach at their largest worker count against
	// workers=1. It is enforced only on machines with more than one CPU.
	minScaling = 2
)

// Report is the BENCH_gates.json document.
type Report struct {
	Date       string `json:"date"`
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Warning flags a machine on which worker speedups measure scheduling
	// overhead, not scaling.
	Warning string        `json:"warning,omitempty"`
	Gates   []Gate        `json:"gates"`
	Kernels []KernelEntry `json:"kernels"`
	Store   []StoreEntry  `json:"store"`
}

// Gate is one judged check: a timing ratio against its threshold, or an
// output check against its reference.
type Gate struct {
	Name string `json:"name"`
	// Value is a timing gate's measured ratio, or the number of outputs an
	// output check compared.
	Value float64 `json:"value"`
	// Min is a timing gate's threshold; output checks have none.
	Min float64 `json:"min,omitempty"`
	// Enforced is false for a scaling gate on a single CPU: its verdict is
	// recorded but does not fail the run.
	Enforced bool   `json:"enforced"`
	Pass     bool   `json:"pass"`
	Detail   string `json:"detail,omitempty"`
}

func newReport(seed uint64) *Report {
	r := &Report{
		Date: time.Now().UTC().Format(time.RFC3339), Seed: seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if r.NumCPU == 1 {
		r.Warning = "single-CPU machine: worker speedups are ≈ 1.0 by construction and measure scheduling overhead, not scaling"
		log.Printf("WARNING: %s", r.Warning)
	}
	return r
}

// ratioGate records a timing gate: value must reach need.
func (r *Report) ratioGate(name string, value, need float64, enforced bool, detail string) {
	g := Gate{Name: name, Value: value, Min: need, Enforced: enforced, Pass: value >= need, Detail: detail}
	r.Gates = append(r.Gates, g)
	log.Printf("gate %s: %.2f× (need ≥ %.1f×, enforced %v) %s", name, value, need, enforced, detail)
}

// check counts the outputs one output check compared with their reference
// and keeps the first mismatch.
type check struct {
	name  string
	seen  int
	first string
}

func (c *check) fail(format string, args ...any) {
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

func (r *Report) addCheck(c *check) {
	g := Gate{Name: c.name, Value: float64(c.seen), Enforced: true, Pass: c.seen > 0 && c.first == "", Detail: c.first}
	r.Gates = append(r.Gates, g)
	log.Printf("check %s: %d outputs, pass %v %s", c.name, c.seen, g.Pass, c.first)
}

// failed lists the enforced gates that did not pass.
func (r *Report) failed() []string {
	var names []string
	for _, g := range r.Gates {
		if g.Enforced && !g.Pass {
			names = append(names, g.Name)
		}
	}
	return names
}

// run times every section at sz, appending entries and gates to r.
func (r *Report) run(sz sizes) error {
	for _, section := range []func(*Report, sizes) error{linkageSection, pirSection, storeSection} {
		if err := section(r, sz); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs fn at each worker count in turn and restores the pool size.
func sweep(workers []int, fn func(w int) error) error {
	prev := par.SetWorkers(0)
	defer par.SetWorkers(prev)
	for _, w := range workers {
		par.SetWorkers(w)
		if err := fn(w); err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
	}
	return nil
}

// pct returns the p-quantile of sorted latencies (nearest rank below).
func pct(sorted []int64, p float64) int64 {
	return sorted[int(p*float64(len(sorted)-1))]
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	out := flag.String("out", "BENCH_gates.json", "output JSON file")
	seed := flag.Uint64("seed", 20070923, "PRNG seed for every synthetic workload")
	flag.Parse()
	r := newReport(*seed)
	if err := r.run(full); err != nil {
		log.Fatal(err)
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s: %d gates, %d kernel and %d store entries", *out, len(r.Gates), len(r.Kernels), len(r.Store))
	if failed := r.failed(); len(failed) > 0 {
		log.Fatalf("%d GATES FAILED: %s", len(failed), strings.Join(failed, "; "))
	}
}
