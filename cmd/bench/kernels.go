package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/big"
	"math/rand/v2"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/microagg"
	"privacy3d/internal/noise"
	"privacy3d/internal/pir"
	"privacy3d/internal/risk"
)

// kernelWorkers is the worker sweep of the linkage and PIR kernels; the
// first count is the sequential reference.
var kernelWorkers = []int{1, 2, 4, 8}

// pirIters is how many times each PIR point runs; the fastest is kept.
const pirIters = 3

// KernelEntry is one (kernel, workers) measurement of the linkage or PIR
// section.
type KernelEntry struct {
	Section string `json:"section"`
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	Rows    int    `json:"rows,omitempty"`
	// DBBytes is the database volume a PIR scan kernel touches per answer.
	DBBytes        int64   `json:"db_bytes,omitempty"`
	NsOp           int64   `json:"ns_op"`
	ThroughputMiBs float64 `json:"throughput_mib_s,omitempty"`
	// SpeedupVsWorkers1 is the workers=1 run's wall clock over this run's,
	// on identical input.
	SpeedupVsWorkers1 float64 `json:"speedup_vs_workers1"`
	// Result is a linkage kernel's headline quantity (linkage rate,
	// disclosure rate, group count) and Checksum an FNV-1a hash of any
	// kernel's output bytes: drift canaries beside the timing.
	Result   float64 `json:"result,omitempty"`
	Checksum uint64  `json:"checksum"`
}

// kernel is one timed hot path.
type kernel struct {
	name    string
	rows    int
	dbBytes int64
	// run returns the kernel's output bytes and headline result.
	run func() ([]byte, float64, error)
	// want, if set, is the output every run must reproduce; otherwise the
	// workers=1 run's output is the reference.
	want []byte
}

// best runs k iters times and returns the fastest wall clock with the last
// output.
func best(k kernel, iters int) (ns int64, out []byte, result float64, err error) {
	for i := 0; i < iters; i++ {
		start := time.Now()
		o, res, err := k.run()
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return 0, nil, 0, fmt.Errorf("%s: %w", k.name, err)
		}
		if i == 0 || elapsed < ns {
			ns = elapsed
		}
		out, result = o, res
	}
	return ns, out, result, nil
}

func (r *Report) addKernel(section string, k kernel, w int, ns int64, out []byte, result, speedup float64) {
	e := KernelEntry{
		Section: section, Kernel: k.name, Workers: w, Rows: k.rows, DBBytes: k.dbBytes,
		NsOp: ns, SpeedupVsWorkers1: speedup, Result: result, Checksum: checksum(out),
	}
	if k.dbBytes > 0 {
		e.ThroughputMiBs = float64(k.dbBytes) / (1 << 20) / (float64(ns) / 1e9)
	}
	r.Kernels = append(r.Kernels, e)
	log.Printf("%-8s %-22s workers=%-2d %12s  speedup %.2fx", section, k.name, w, time.Duration(ns), speedup)
}

// timeKernels times each kernel at every worker count and checks every
// output against the kernel's reference.
func (r *Report) timeKernels(section string, ks []kernel, iters int) error {
	for _, k := range ks {
		c := &check{name: fmt.Sprintf("%s/%s: output at every worker count ≡ the workers=1 output", section, k.name)}
		if k.want != nil {
			c.name = fmt.Sprintf("%s/%s: output at every worker count ≡ the reference kernel's", section, k.name)
		}
		var baseNs int64
		err := sweep(kernelWorkers, func(w int) error {
			ns, out, result, err := best(k, iters)
			if err != nil {
				return err
			}
			if w == kernelWorkers[0] {
				baseNs = ns
				if k.want == nil {
					k.want = out
				}
			}
			c.seen++
			if !bytes.Equal(out, k.want) {
				c.fail("workers=%d output differs", w)
			}
			r.addKernel(section, k, w, ns, out, result, float64(baseNs)/float64(ns))
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", section, err)
		}
		r.addCheck(c)
	}
	return nil
}

// checksum folds output bytes into a drift canary (FNV-1a).
func checksum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// reportBytes serialises a kernel's report for the identity check.
func reportBytes(rep any, result float64, err error) ([]byte, float64, error) {
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(rep)
	return b, result, err
}

// linkageSection times distance linkage and interval disclosure against a
// noise-masked copy of a synthetic trial dataset, and MDAV on its first
// mdavRows rows.
func linkageSection(r *Report, sz sizes) error {
	d, err := dataset.Synth("trial", sz.linkageRows, r.Seed)
	if err != nil {
		return err
	}
	qi := d.QuasiIdentifiers()
	masked, err := noise.AddUncorrelated(d, qi, 0.2, dataset.NewRand(r.Seed^0xbe7c))
	if err != nil {
		return err
	}
	idx := make([]int, min(sz.mdavRows, sz.linkageRows))
	for i := range idx {
		idx[i] = i
	}
	small := d.Select(idx)
	flat := small.NumericFlat(small.QuasiIdentifiers())
	return r.timeKernels("linkage", []kernel{
		{name: "distance_linkage", rows: d.Rows(), run: func() ([]byte, float64, error) {
			rep, err := risk.DistanceLinkage(d, masked, qi)
			return reportBytes(rep, rep.Rate, err)
		}},
		{name: "interval_disclosure", rows: d.Rows(), run: func() ([]byte, float64, error) {
			v, err := risk.IntervalDisclosure(d, masked, qi, 10)
			return reportBytes(v, v, err)
		}},
		{name: "mdav_groups", rows: small.Rows(), run: func() ([]byte, float64, error) {
			groups, err := microagg.MDAVGroupsFlat(flat, 3)
			return reportBytes(groups, float64(len(groups)), err)
		}},
	}, 1)
}

// pirSection times the IT-PIR answer kernel on a random database scanned
// whole by every answer, the CPIR answer kernel, and the Section 3
// RangeStats scenario end to end. The IT-PIR kernel's reference is the
// byte-at-a-time XOR kernel, timed first at workers=1.
func pirSection(r *Report, sz sizes) error {
	rng := dataset.NewRand(r.Seed)
	dbBytes := int64(sz.pirBlocks) * int64(sz.pirBlockSize)
	blocks := make([][]byte, sz.pirBlocks)
	for i := range blocks {
		b := make([]byte, sz.pirBlockSize)
		for j := 0; j+8 <= len(b); j += 8 {
			v := rng.Uint64()
			for o := 0; o < 8; o++ {
				b[j+o] = byte(v >> (8 * o))
			}
		}
		for j := len(b) &^ 7; j < len(b); j++ {
			b[j] = byte(rng.Uint64())
		}
		blocks[i] = b
	}
	itServer, err := pir.NewITServer(blocks)
	if err != nil {
		return err
	}
	subset := make([]byte, (sz.pirBlocks+7)/8)
	for j := range subset {
		subset[j] = byte(rng.Uint64())
	}
	if sz.pirBlocks%8 != 0 {
		subset[len(subset)-1] &= byte(1<<(sz.pirBlocks%8)) - 1
	}
	cpirServer, cpirQuery, cpirN, err := cpirWorkload(sz.cpirBits, rng)
	if err != nil {
		return err
	}
	cpirRows, cpirCols := cpirServer.Shape()
	rangeStats, err := statWorkload(sz.statRows, r.Seed)
	if err != nil {
		return err
	}

	bytewise := kernel{name: "itpir_answer_bytewise", dbBytes: dbBytes, run: func() ([]byte, float64, error) {
		return bytewiseAnswer(blocks, subset), 0, nil
	}}
	byteNs, byteOut, _, err := best(bytewise, pirIters)
	if err != nil {
		return err
	}
	r.addKernel("pir", bytewise, 1, byteNs, byteOut, 0, 1)

	err = r.timeKernels("pir", []kernel{
		{name: "itpir_answer", dbBytes: dbBytes, want: byteOut, run: func() ([]byte, float64, error) {
			out, err := itServer.Answer(subset)
			return out, 0, err
		}},
		{name: "cpir_answer", dbBytes: int64(cpirRows) * int64(cpirCols) / 8, run: func() ([]byte, float64, error) {
			zs, err := cpirServer.Answer(cpirQuery, cpirN)
			if err != nil {
				return nil, 0, err
			}
			var buf []byte
			for _, z := range zs {
				b := z.Bytes()
				buf = append(buf, byte(len(b)), byte(len(b)>>8))
				buf = append(buf, b...)
			}
			return buf, 0, nil
		}},
		{name: "range_stats", run: rangeStats},
	}, pirIters)
	if err != nil {
		return err
	}

	maxW := kernelWorkers[len(kernelWorkers)-1]
	for _, e := range r.Kernels {
		if e.Kernel == "itpir_answer" && e.Workers == maxW {
			r.ratioGate(fmt.Sprintf("pir/itpir_answer: workers=%d vs workers=1 speedup", maxW),
				e.SpeedupVsWorkers1, minScaling, r.NumCPU > 1, "")
		}
	}
	return nil
}

// bytewiseAnswer is the byte-at-a-time XOR kernel the word-packed IT-PIR
// engine replaced: its reference and its baseline.
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

// cpirWorkload builds a CPIR server over bits random bits and a
// deterministic full-width column query modulo a fixed 512-bit modulus.
func cpirWorkload(bits int, rng *rand.Rand) (*pir.CPIRServer, []*big.Int, *big.Int, error) {
	db := make([]bool, bits)
	for i := range db {
		db[i] = rng.Uint64()&1 == 1
	}
	srv, err := pir.NewCPIRServer(db)
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

// statWorkload builds the Section 3 PIR-backed statistical database over a
// synthetic trial dataset and returns a kernel run answering one fixed
// COUNT/SUM rectangle over its central 12×12 cells: 144 private
// retrievals per run, the round-trip cost the batched client parallelises.
func statWorkload(rows int, seed uint64) (func() ([]byte, float64, error), error) {
	d, err := dataset.Synth("trial", rows, seed)
	if err != nil {
		return nil, err
	}
	hEdges := gridEdges(d, d.Index("height"), 24)
	wEdges := gridEdges(d, d.Index("weight"), 24)
	db, err := pir.BuildStatDB(d, "height", "weight", "blood_pressure", hEdges, wEdges, 2)
	if err != nil {
		return nil, err
	}
	return func() ([]byte, float64, error) {
		res, err := db.RangeStats(hEdges[6], hEdges[18], wEdges[6], wEdges[18], seed^0x57a7)
		return reportBytes(res, 0, err)
	}, nil
}

// gridEdges covers column j's value range with cells+1 equally spaced
// edges (the top edge nudged up so the maximum stays inside the grid).
func gridEdges(d *dataset.Dataset, j, cells int) []float64 {
	lo, hi := columnRange(d, j)
	hi += (hi - lo) * 1e-6
	edges := make([]float64, cells+1)
	for e := range edges {
		edges[e] = lo + (hi-lo)*float64(e)/float64(cells)
	}
	return edges
}

// columnRange returns the minimum and maximum of numeric column j.
func columnRange(d *dataset.Dataset, j int) (lo, hi float64) {
	lo, hi = d.Float(0, j), d.Float(0, j)
	for i := 1; i < d.Rows(); i++ {
		v := d.Float(i, j)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
