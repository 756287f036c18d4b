// Command benchpir is the benchmark gate of the word-parallel PIR
// answering engine: it times the IT-PIR answer kernel, the CPIR answer
// kernel and the end-to-end Section 3 RangeStats scenario on a large
// synthetic database across worker counts, verifies that every parallel
// answer is byte-identical to the workers=1 sequential reference, and
// writes the perf trajectory to a JSON file (BENCH_pir.json via make
// bench).
//
//	benchpir -blocks 65536 -blocksize 1024 -workers 1,2,4,8 -out BENCH_pir.json
//
// The default database is 64 MiB — PIR servers scan all of it on every
// query by design, so this is the system's hottest path. The tool also
// times the seed's byte-at-a-time XOR kernel on the same workload and
// reports the word-packing speedup at workers=1. It exits non-zero if any
// parallel answer differs from the sequential reference — determinism is
// a hard gate. Speedup across workers scales with physical cores (a
// single-CPU machine is flagged in the JSON and on stderr).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/big"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/par"
	"privacy3d/internal/pir"
)

// Entry is one (kernel, workers) measurement.
type Entry struct {
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	// DBBytes is the database volume the kernel touches per answer.
	DBBytes int64 `json:"db_bytes"`
	NsOp    int64 `json:"ns_op"`
	// ThroughputMiBs is DBBytes/op over wall-clock, the engine's headline
	// number (only meaningful for the database-scan kernels).
	ThroughputMiBs float64 `json:"throughput_mib_s,omitempty"`
	// SpeedupVsWorkers1 is wall-clock of the workers=1 run divided by this
	// run's, on identical input.
	SpeedupVsWorkers1 float64 `json:"speedup_vs_workers1"`
	// SpeedupVsBytewise compares the workers=1 word kernel against the
	// seed's byte-at-a-time kernel (set on the itpir_answer workers=1 row).
	SpeedupVsBytewise float64 `json:"speedup_vs_bytewise,omitempty"`
	// IdenticalToWorkers1 records byte-identity of this run's answer
	// against the sequential reference (always true, or the tool fails).
	IdenticalToWorkers1 bool `json:"identical_to_workers1"`
	// Checksum is a drift canary over the answer bytes.
	Checksum uint64 `json:"checksum"`
}

// Report is the BENCH_pir.json document.
type Report struct {
	Date       string `json:"date"`
	Blocks     int    `json:"blocks"`
	BlockSize  int    `json:"block_size"`
	CPIRBits   int    `json:"cpir_bits"`
	StatRows   int    `json:"stat_rows"`
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Warning flags measurement conditions under which the speedup columns
	// are not meaningful (e.g. a single-CPU machine).
	Warning string       `json:"warning,omitempty"`
	Entries []Entry      `json:"entries"`
	Scaling *ScalingGate `json:"scaling,omitempty"`
}

// ScalingGate records the worker-scaling requirement on the itpir_answer
// kernel: on a multi-core machine, the max-workers run must beat the
// workers=1 reference by at least -minscaling×. On a single-CPU machine the
// gate degrades to the report warning.
type ScalingGate struct {
	Kernel     string  `json:"kernel"`
	MaxWorkers int     `json:"max_workers"`
	Scaling    float64 `json:"scaling"`
	MinScaling float64 `json:"min_scaling"`
	Enforced   bool    `json:"enforced"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpir: ")
	blocks := flag.Int("blocks", 65536, "IT-PIR database blocks")
	blockSize := flag.Int("blocksize", 1024, "IT-PIR block size in bytes (blocks×blocksize ≥ 64 MiB for the real gate)")
	cpirBits := flag.Int("cpirbits", 1<<18, "CPIR database size in bits")
	statRows := flag.Int("statrows", 20000, "synthetic dataset rows for the RangeStats scenario")
	workersList := flag.String("workers", "1,2,4,8", "comma-separated worker counts; must start with 1")
	seed := flag.Uint64("seed", 20070923, "PRNG seed for the synthetic workload")
	iters := flag.Int("iters", 3, "timing iterations per point (minimum is reported)")
	out := flag.String("out", "BENCH_pir.json", "output JSON file")
	minWordSpeedup := flag.Float64("minwordspeedup", 0,
		"fail unless the workers=1 word kernel beats the byte-wise kernel by this factor (0 = report only)")
	minScaling := flag.Float64("minscaling", 2,
		"required itpir_answer speedup at max workers vs workers=1 (skipped on single-CPU machines; 0 = report only)")
	flag.Parse()
	if err := run(*blocks, *blockSize, *cpirBits, *statRows, *workersList, *seed, *iters, *out, *minWordSpeedup, *minScaling); err != nil {
		log.Fatal(err)
	}
}

func parseWorkers(s string) ([]int, error) {
	var ws []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", f)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 || ws[0] != 1 {
		return nil, fmt.Errorf("-workers must start with 1 (the sequential reference), got %q", s)
	}
	return ws, nil
}

// cpuWarning returns the single-CPU caveat, or "" on multi-core machines.
func cpuWarning() string {
	if runtime.NumCPU() > 1 {
		return ""
	}
	return "single-CPU machine: parallel speedups are ≈ 1.0 by construction and measure scheduling overhead, not scaling"
}

// checksum folds answer bytes into a drift canary (FNV-1a).
func checksum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// kernel is one timed hot path. run returns the canonical answer bytes for
// the byte-identity gate.
type kernel struct {
	name    string
	dbBytes int64
	run     func() ([]byte, error)
}

// timeKernel runs k.run iters times, returning the minimum wall-clock and
// the (identical every iteration) answer bytes.
func timeKernel(k kernel, iters int) (int64, []byte, error) {
	var best int64
	var answer []byte
	for i := 0; i < iters; i++ {
		start := time.Now()
		ans, err := k.run()
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return 0, nil, err
		}
		if i == 0 || elapsed < best {
			best = elapsed
		}
		answer = ans
	}
	return best, answer, nil
}

func run(blocks, blockSize, cpirBits, statRows int, workersList string, seed uint64, iters int, out string, minWordSpeedup, minScaling float64) error {
	ws, err := parseWorkers(workersList)
	if err != nil {
		return err
	}
	if blocks < 1 || blockSize < 1 || cpirBits < 1 || statRows < 1 || iters < 1 {
		return fmt.Errorf("-blocks, -blocksize, -cpirbits, -statrows and -iters must all be ≥ 1")
	}
	dbBytes := int64(blocks) * int64(blockSize)
	log.Printf("generating %d × %d B IT-PIR database (%.1f MiB, seed %d)",
		blocks, blockSize, float64(dbBytes)/(1<<20), seed)
	rng := dataset.NewRand(seed)
	rawBlocks := make([][]byte, blocks)
	for i := range rawBlocks {
		b := make([]byte, blockSize)
		for j := 0; j+8 <= blockSize; j += 8 {
			v := rng.Uint64()
			for o := 0; o < 8; o++ {
				b[j+o] = byte(v >> (8 * o))
			}
		}
		for j := blockSize &^ 7; j < blockSize; j++ {
			b[j] = byte(rng.Uint64())
		}
		rawBlocks[i] = b
	}
	itServer, err := pir.NewITServer(rawBlocks)
	if err != nil {
		return err
	}
	subset := make([]byte, (blocks+7)/8)
	for j := range subset {
		subset[j] = byte(rng.Uint64())
	}
	if blocks%8 != 0 {
		subset[len(subset)-1] &= byte(1<<(blocks%8)) - 1
	}

	cpirServer, cpirQuery, cpirN, err := buildCPIRWorkload(cpirBits, rng)
	if err != nil {
		return err
	}
	cpirRows, cpirCols := cpirServer.Shape()

	_, statQuery, err := buildStatWorkload(statRows, seed)
	if err != nil {
		return err
	}

	kernels := []kernel{
		{
			name: "itpir_answer", dbBytes: dbBytes,
			run: func() ([]byte, error) { return itServer.Answer(subset) },
		},
		{
			name: "cpir_answer", dbBytes: int64(cpirRows) * int64(cpirCols) / 8,
			run: func() ([]byte, error) {
				zs, err := cpirServer.Answer(cpirQuery, cpirN)
				if err != nil {
					return nil, err
				}
				var buf []byte
				for _, z := range zs {
					b := z.Bytes()
					buf = append(buf, byte(len(b)), byte(len(b)>>8))
					buf = append(buf, b...)
				}
				return buf, nil
			},
		},
		{
			name: "range_stats", dbBytes: 0,
			run: statQuery,
		},
	}

	report := Report{
		Date:   time.Now().UTC().Format(time.RFC3339),
		Blocks: blocks, BlockSize: blockSize, CPIRBits: cpirBits, StatRows: statRows,
		Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Warning: cpuWarning(),
	}
	if report.Warning != "" {
		log.Printf("WARNING: %s", report.Warning)
	}
	prev := par.SetWorkers(0)
	defer par.SetWorkers(prev)

	// Baseline: the seed's byte-at-a-time kernel on the identical subset.
	par.SetWorkers(1)
	byteKernel := kernel{name: "itpir_answer_bytewise", dbBytes: dbBytes,
		run: func() ([]byte, error) { return bytewiseAnswer(rawBlocks, subset), nil }}
	byteNs, byteAns, err := timeKernel(byteKernel, iters)
	if err != nil {
		return err
	}
	report.Entries = append(report.Entries, Entry{
		Kernel: byteKernel.name, Workers: 1, DBBytes: dbBytes, NsOp: byteNs,
		ThroughputMiBs:    mibs(dbBytes, byteNs),
		SpeedupVsWorkers1: 1, IdenticalToWorkers1: true, Checksum: checksum(byteAns),
	})
	log.Printf("%-22s workers=%-2d %12s  %8.0f MiB/s  (seed reference kernel)",
		byteKernel.name, 1, time.Duration(byteNs), mibs(dbBytes, byteNs))

	var wordBaseNs int64
	for _, k := range kernels {
		var baseNs int64
		var baseAns []byte
		for _, w := range ws {
			par.SetWorkers(w)
			ns, ans, err := timeKernel(k, iters)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %w", k.name, w, err)
			}
			e := Entry{
				Kernel: k.name, Workers: w, DBBytes: k.dbBytes, NsOp: ns,
				ThroughputMiBs:    mibs(k.dbBytes, ns),
				SpeedupVsWorkers1: 1, IdenticalToWorkers1: true, Checksum: checksum(ans),
			}
			if w == 1 {
				baseNs, baseAns = ns, ans
				if k.name == "itpir_answer" {
					wordBaseNs = ns
					e.SpeedupVsBytewise = float64(byteNs) / float64(ns)
					if string(ans) != string(byteAns) {
						return fmt.Errorf("itpir_answer: word kernel differs from the byte-wise reference — determinism gate failed")
					}
				}
			} else {
				e.SpeedupVsWorkers1 = float64(baseNs) / float64(ns)
				e.IdenticalToWorkers1 = string(ans) == string(baseAns)
				if !e.IdenticalToWorkers1 {
					return fmt.Errorf("%s workers=%d: answer differs byte-wise from the workers=1 reference — determinism gate failed", k.name, w)
				}
			}
			report.Entries = append(report.Entries, e)
			log.Printf("%-22s workers=%-2d %12s  %8.0f MiB/s  speedup %.2fx",
				k.name, w, time.Duration(ns), e.ThroughputMiBs, e.SpeedupVsWorkers1)
		}
	}

	// Scaling gate: itpir_answer at the largest worker count vs. the
	// workers=1 reference. Enforced only on multi-core machines — on a
	// single CPU the speedup is ≈ 1.0 by construction, so the gate degrades
	// to the warning already in the report.
	maxW := ws[0]
	for _, w := range ws {
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 1 && minScaling > 0 {
		sg := &ScalingGate{
			Kernel: "itpir_answer", MaxWorkers: maxW,
			MinScaling: minScaling, Enforced: runtime.NumCPU() > 1,
		}
		for _, e := range report.Entries {
			if e.Kernel == "itpir_answer" && e.Workers == maxW {
				sg.Scaling = e.SpeedupVsWorkers1
			}
		}
		report.Scaling = sg
		if !sg.Enforced {
			log.Printf("scaling gate skipped (%s): itpir_answer workers=%d speedup %.2fx", report.Warning, maxW, sg.Scaling)
		} else if sg.Scaling < minScaling {
			return fmt.Errorf("SCALING GATE FAILED: itpir_answer workers=%d speedup %.2fx below required %.2fx", maxW, sg.Scaling, minScaling)
		} else {
			log.Printf("scaling OK: itpir_answer workers=%d speedup %.2fx (need ≥ %.1fx)", maxW, sg.Scaling, minScaling)
		}
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d entries); all parallel answers byte-identical to sequential", out, len(report.Entries))
	if minWordSpeedup > 0 {
		got := float64(byteNs) / float64(wordBaseNs)
		if got < minWordSpeedup {
			return fmt.Errorf("word kernel speedup over byte-wise %.2fx below required %.2fx", got, minWordSpeedup)
		}
	}
	return nil
}

func mibs(dbBytes, ns int64) float64 {
	if dbBytes == 0 || ns == 0 {
		return 0
	}
	return float64(dbBytes) / (1 << 20) / (float64(ns) / 1e9)
}

// bytewiseAnswer is the seed's byte-at-a-time XOR kernel, the baseline the
// word-packed engine is measured against.
func bytewiseAnswer(blocks [][]byte, subset []byte) []byte {
	out := make([]byte, len(blocks[0]))
	for i, b := range blocks {
		if subset[i>>3]>>(i&7)&1 == 1 {
			for j := range out {
				out[j] ^= b[j]
			}
		}
	}
	return out
}

// buildCPIRWorkload constructs a CPIR server over cpirBits random bits plus
// a deterministic full-width column query modulo a fixed 512-bit modulus.
func buildCPIRWorkload(cpirBits int, rng *rand.Rand) (*pir.CPIRServer, []*big.Int, *big.Int, error) {
	bits := make([]bool, cpirBits)
	for i := range bits {
		bits[i] = rng.Uint64()&1 == 1
	}
	srv, err := pir.NewCPIRServer(bits)
	if err != nil {
		return nil, nil, nil, err
	}
	n := new(big.Int).Lsh(big.NewInt(1), 512)
	n.Sub(n, big.NewInt(569)) // fixed odd modulus; the kernel only multiplies mod n
	_, cols := srv.Shape()
	query := make([]*big.Int, cols)
	for c := range query {
		v := make([]byte, 64)
		for j := range v {
			v[j] = byte(rng.Uint64())
		}
		query[c] = new(big.Int).Mod(new(big.Int).SetBytes(v), n)
	}
	return srv, query, n, nil
}

// buildStatWorkload builds the Section 3 PIR-backed statistical database
// over a synthetic clinical-trial dataset and returns a closure running a
// fixed COUNT/SUM rectangle query, serialized for the identity gate.
func buildStatWorkload(rows int, seed uint64) (*pir.StatDB, func() ([]byte, error), error) {
	d, err := dataset.Synth("trial", rows, seed)
	if err != nil {
		return nil, nil, err
	}
	hj, wj := d.Index("height"), d.Index("weight")
	hEdges := gridEdges(d, hj, 24)
	wEdges := gridEdges(d, wj, 24)
	db, err := pir.BuildStatDB(d, "height", "weight", "blood_pressure", hEdges, wEdges, 2)
	if err != nil {
		return nil, nil, err
	}
	// The queried rectangle covers the central 12×12 cells — 144 private
	// retrievals per evaluation, the k×cells round-trip cost the batched
	// client exists to parallelise.
	xLo, xHi := hEdges[6], hEdges[18]
	yLo, yHi := wEdges[6], wEdges[18]
	q := func() ([]byte, error) {
		res, err := db.RangeStats(xLo, xHi, yLo, yHi, seed^0x57a7)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	return db, q, nil
}

// gridEdges covers column j's value range with cells+1 equally spaced
// edges (the top edge nudged up so the maximum stays inside the grid).
func gridEdges(d *dataset.Dataset, j, cells int) []float64 {
	lo, hi := d.Float(0, j), d.Float(0, j)
	for i := 1; i < d.Rows(); i++ {
		v := d.Float(i, j)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	hi += (hi - lo) * 1e-6
	edges := make([]float64, cells+1)
	for e := range edges {
		edges[e] = lo + (hi-lo)*float64(e)/float64(cells)
	}
	return edges
}
