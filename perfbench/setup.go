package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// DP settings shared by the served stack and its twin. ε is a power of two
// and the budget an integer, so the ledger's running sums are exact and
// the oracle can predict every epsilon_remaining; the budget is far beyond
// any run's debits, so no request is ever refused.
const (
	epsilon = 0.5
	budget  = 1 << 30
)

// A run sets the server up earlyReps times before the measured phase (the
// first of these takes the ingest, the last is the server measured) and
// lateReps times after it, on a pristine copy of the same inputs; setup_s
// is the median of all of them.
// Spreading the samples over the run keeps one burst of machine noise from
// moving every sample together.
const (
	earlyReps = 3
	lateReps  = 4
)

func serverConfig(seed uint64) sdcquery.Config {
	return sdcquery.Config{
		Protection:    sdcquery.DifferentialPrivacy,
		Seed:          seed,
		Epsilon:       epsilon,
		EpsilonBudget: budget,
	}
}

// served is one set-up server with the store it answers from (the server
// owns the store; the handle is kept for the store's own counters).
type served struct {
	srv *sdcquery.Server
	st  *store.Store
}

func (s *served) close() error { return s.srv.Close() }

// setupTimes holds each repetition's timings, in seconds.
type setupTimes struct {
	store     []float64 // store.Open (durable) or store.FromDatasetSharded
	newServer []float64 // sdcquery.NewServerFromStore
	total     []float64
	// build is the one-off datadir creation of durable workloads, or the
	// median store build of memory-only ones.
	build float64
	// sealed is the number of sealed segments of the served store.
	sealed int
}

// prepared is a workload's server ready to measure, plus how to build its
// twin: a second server answering exactly as the measured one did during
// the read phases (same rows, same snapshot version, same noise draws).
type prepared struct {
	main *served
	// ingest is an identical server, set up from its own copy of the
	// inputs, that takes the ingest phase's rows while main serves reads.
	ingest *served
	times  setupTimes
	twin   func() (*served, error)
	// late runs the lateReps set-ups; runs call it after the measured
	// phase.
	late func() error
}

func prepare(w *workload, seed uint64, workdir string) (*prepared, error) {
	if w.durable {
		return prepareDurable(w, seed, workdir)
	}
	return prepareMemory(w, seed)
}

// timedSetup builds a store with open and serves it, recording the times.
func (t *setupTimes) timedSetup(seed uint64, open func() (*store.Store, error)) (*served, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := open()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	srv, err := sdcquery.NewServerFromStore(st, serverConfig(seed))
	if err != nil {
		st.Close()
		return nil, err
	}
	t2 := time.Now()
	t.add(t0, t1, t2)
	return &served{srv: srv, st: st}, nil
}

// prepareMemory times the `serve -in` path: the columnar store built from
// the dataset, then the server over it. The late set-ups and the twin
// regenerate the dataset, so it is not live during the measured phase.
func prepareMemory(w *workload, seed uint64) (*prepared, error) {
	d, err := servedDataset(w, seed)
	if err != nil {
		return nil, err
	}
	build := func() (*store.Store, error) { return store.FromDatasetSharded(d, 0, 0) }
	p := &prepared{}
	for rep := 0; rep < earlyReps; rep++ {
		s, err := p.times.timedSetup(seed, build)
		if err != nil {
			p.closeAll()
			return nil, err
		}
		switch rep {
		case 0:
			p.ingest = s
		case earlyReps - 1:
			p.main = s
		default:
			if err := s.close(); err != nil {
				p.closeAll()
				return nil, err
			}
		}
	}
	d = nil
	regenerate := func() (err error) {
		if d == nil {
			d, err = servedDataset(w, seed)
		}
		return err
	}
	ts := p.main.st.TierStats()
	p.times.sealed = ts.Resident + ts.Spilled
	p.late = func() error {
		if err := regenerate(); err != nil {
			return err
		}
		for rep := 0; rep < lateReps; rep++ {
			s, err := p.times.timedSetup(seed, build)
			if err != nil {
				return err
			}
			if err := s.close(); err != nil {
				return err
			}
		}
		p.times.build = median(p.times.store)
		return nil
	}
	p.twin = func() (*served, error) {
		if err := regenerate(); err != nil {
			return nil, err
		}
		var t setupTimes
		return t.timedSetup(seed, build)
	}
	return p, nil
}

// prepareDurable builds the workload's datadir once, then times the
// `serve -datadir` restart path: store.Open (manifest and full-CRC
// validation) and the server over the recovered store. Open bumps and
// commits the store's epoch, so the twin's byte-copy is taken just before
// the last early repetition: opening the copy the same way lands on the
// same epoch, hence the same snapshot version and the same DP noise draws.
// The first repetition opens the ingest server's own copy, and the late
// repetitions open a copy taken before any Open.
func prepareDurable(w *workload, seed uint64, workdir string) (*prepared, error) {
	d, err := servedDataset(w, seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(workdir, "data")
	twinDir := filepath.Join(workdir, "twin")
	lateDir := filepath.Join(workdir, "late")
	ingestDir := filepath.Join(workdir, "ingest")
	t0 := time.Now()
	st, err := store.CreateFromDataset(dataDir, d, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("create datadir: %w", err)
	}
	p := &prepared{}
	p.times.build = time.Since(t0).Seconds()
	footprint := st.TierStats().ResidentBytes
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close datadir: %w", err)
	}
	for _, dst := range []string{lateDir, ingestDir} {
		if err := copyDir(dataDir, dst); err != nil {
			return nil, err
		}
	}
	var opts store.Options
	if w.memCapDiv > 0 {
		opts.MemCap = footprint / w.memCapDiv
	}
	open := func(dir string) func() (*store.Store, error) {
		return func() (*store.Store, error) {
			st, err := store.Open(dir, opts)
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", dir, err)
			}
			return st, nil
		}
	}
	for rep := 0; rep < earlyReps; rep++ {
		if rep == earlyReps-1 {
			if err := copyDir(dataDir, twinDir); err != nil {
				return nil, err
			}
		}
		dir := dataDir
		if rep == 0 {
			dir = ingestDir
		}
		s, err := p.times.timedSetup(seed, open(dir))
		if err != nil {
			p.closeAll()
			return nil, err
		}
		switch rep {
		case 0:
			p.ingest = s
			if w.clustered {
				if err := checkClustered(s.st); err != nil {
					p.closeAll()
					return nil, err
				}
			}
		case earlyReps - 1:
			p.main = s
		default:
			if err := s.close(); err != nil {
				p.closeAll()
				return nil, err
			}
		}
	}
	ts := p.main.st.TierStats()
	p.times.sealed = ts.Resident + ts.Spilled
	p.late = func() error {
		for rep := 0; rep < lateReps; rep++ {
			s, err := p.times.timedSetup(seed, open(lateDir))
			if err != nil {
				return err
			}
			if err := s.close(); err != nil {
				return err
			}
		}
		return nil
	}
	p.twin = func() (*served, error) {
		var t setupTimes
		return t.timedSetup(seed, open(twinDir))
	}
	return p, nil
}

// closeAll closes the servers still open, on a path out of a run.
func (p *prepared) closeAll() {
	for _, s := range []**served{&p.ingest, &p.main} {
		if *s != nil {
			(*s).close()
			*s = nil
		}
	}
}

func (t *setupTimes) add(t0, t1, t2 time.Time) {
	t.store = append(t.store, t1.Sub(t0).Seconds())
	t.newServer = append(t.newServer, t2.Sub(t1).Seconds())
	t.total = append(t.total, t2.Sub(t0).Seconds())
}

// checkClustered is the clustered workload's validity guard: the sealed
// segments' height ranges must ascend without overlapping (adjacent
// segments may share one boundary value, since heights are rounded to
// 0.1 cm). Materialize reads each segment once, so it is cheap even when
// most segments are spilled.
func checkClustered(st *store.Store) error {
	ts := st.TierStats()
	sealed := ts.Resident + ts.Spilled
	if sealed < 2 {
		return fmt.Errorf("clustered workload has %d sealed segments, want >= 2", sealed)
	}
	m := st.Snapshot().Materialize()
	h, segSize := m.Index("height"), st.SegmentSize()
	return checkSegmentRanges(m, h, segSize, sealed)
}

func checkSegmentRanges(m *dataset.Dataset, col, segSize, sealed int) error {
	prevHi := math.Inf(-1)
	for k := 0; k < sealed; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := k * segSize; i < (k+1)*segSize; i++ {
			v := m.Float(i, col)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if lo < prevHi {
			return fmt.Errorf("clustered workload: segment %d height range [%g, %g] overlaps the previous segment (max %g)", k, lo, hi, prevHi)
		}
		prevHi = hi
	}
	return nil
}

// copyDir byte-copies the regular files of a store directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: unexpected non-regular entry %s", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	// Flushed now, so the copy's write-back does not land in the timed
	// setup or the measured phase.
	if err := out.Sync(); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}
