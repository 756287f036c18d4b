// Package obs is the observability-and-robustness layer of the serving
// binaries: a dependency-free metrics registry (atomic counters, bounded
// histograms, callback gauges) with a plain-text /metrics endpoint, HTTP
// middleware for request logging, panic recovery, instrumentation and
// per-request timeouts, and a hardened http.Server with graceful shutdown.
//
// The paper frames privacy mechanisms as systems whose leakage and utility
// must be observable in operation (denial rates, query-log depth, traffic
// volume); this package supplies those signals without pulling in any
// third-party dependency.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"privacy3d/internal/par"
	"privacy3d/internal/store"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram, safe for concurrent
// Observe. Bounds are upper bucket edges in ascending order; an implicit
// +Inf bucket catches the tail, so memory is bounded regardless of input.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultLatencyBuckets covers sub-millisecond to multi-second HTTP
// request latencies (seconds).
var DefaultLatencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// DefaultKernelBuckets resolves microsecond-scale compute kernels (the PIR
// answer path, the linkage scans): a word-parallel answer over a small
// database completes in tens of microseconds, far below the first HTTP
// bucket, so kernel histograms need their own finer lower edges (seconds).
var DefaultKernelBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1,
}

// DefaultApplyBuckets covers whole-dataset masking runs (the sdc_apply_seconds
// histogram): milliseconds for small tables up to minutes for 50k-row MDAV
// (seconds).
var DefaultApplyBuckets = []float64{
	1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 30, 60, 120,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry holds named counters, histograms and gauges. Metric names may
// carry Prometheus-style labels (see Label); the registry treats the full
// name as an opaque key, so no label parsing is ever needed.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]func() float64{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Safe for concurrent callers.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Gauge registers fn to be sampled at scrape time under name. Registering
// the same name again replaces the callback.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Label renders name{k1="v1",k2="v2"} from alternating key/value pairs, the
// exposition-format convention used throughout the serving layer.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// labeled splits a metric key into its bare name and a "k=v,..." suffix so
// histogram sub-series can graft _bucket/_sum/_count onto the name part.
func labeled(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func bucketSeries(name, labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("%s_bucket{le=%q}", name, le)
	}
	return fmt.Sprintf("%s_bucket{%s,le=%q}", name, labels, le)
}

// WriteTo renders every metric in a stable, sorted plain-text exposition
// format (a Prometheus-compatible subset).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.Value()
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, fn := range r.gauges {
		gauges[k] = fn
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, k := range sortedKeys(counters) {
		fmt.Fprintf(&b, "%s %d\n", k, counters[k])
	}
	for _, k := range sortedKeys(gauges) {
		fmt.Fprintf(&b, "%s %g\n", k, gauges[k]())
	}
	for _, k := range sortedKeys(hists) {
		h := hists[k]
		name, labels := labeled(k)
		var cum int64
		for i, ub := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(&b, "%s %d\n", bucketSeries(name, labels, fmt.Sprintf("%g", ub)), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(&b, "%s %d\n", bucketSeries(name, labels, "+Inf"), cum)
		fmt.Fprintf(&b, "%s %g\n", series(name+"_sum", labels), h.Sum())
		fmt.Fprintf(&b, "%s %d\n", series(name+"_count", labels), h.Count())
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RegisterParallelism registers the par_workers gauge, reporting the
// effective worker-pool size of the internal/par analytics engine so the
// serving layer's parallelism is visible at GET /metrics.
func RegisterParallelism(r *Registry) {
	r.Gauge("par_workers", func() float64 { return float64(par.Workers()) })
}

// RegisterStoreTiers registers the storage-tier gauges: how many sealed
// segments currently sit in memory versus on disk across the process's
// live stores, and the cumulative count of spilled-segment reads from disk
// (one whole-file read per decode). A serve process without a data
// directory reports its whole store resident and no spilled reads.
func RegisterStoreTiers(r *Registry) {
	gauge := func(pick func(resident, spilled, spilledReads int64) int64) func() float64 {
		return func() float64 { return float64(pick(store.TierGauges())) }
	}
	r.Gauge("store_segments_resident", gauge(func(resident, _, _ int64) int64 { return resident }))
	r.Gauge("store_segments_spilled", gauge(func(_, spilled, _ int64) int64 { return spilled }))
	r.Gauge("store_spilled_reads", gauge(func(_, _, reads int64) int64 { return reads }))
}

// Handler serves the registry as GET /metrics plain text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := r.WriteTo(w); err != nil {
			// The connection is gone; nothing useful left to do.
			return
		}
	})
}
