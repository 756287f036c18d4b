package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"privacy3d/internal/obs"
	"privacy3d/internal/sdc"
	"privacy3d/internal/sdcquery"
)

// clients is the closed-loop client count: analysts who each wait for an
// answer before asking again, one per CPU of the reference machine.
const clients = 2

// stack is the production HTTP stack served on a loopback listener.
type stack struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startStack serves srv exactly as `privacy3d serve` does: the sdcquery
// handler wrapped by Logging (to io.Discard), Instrument, Recover and
// Timeout, on an obs.NewServer with its hardened timeouts.
func startStack(srv *sdcquery.Server) (*stack, error) {
	logger := log.New(io.Discard, "", 0)
	reg := obs.NewRegistry()
	obs.RegisterParallelism(reg)
	obs.RegisterStoreTiers(reg)
	sdc.Instrument(reg)
	h := obs.Chain(sdcquery.NewHandler(srv, sdcquery.HandlerConfig{Registry: reg}),
		obs.Logging(logger),
		obs.Instrument(reg, "/query", "/sql", "/protect", "/log", "/metrics"),
		obs.Recover(reg, logger),
		obs.Timeout(10*time.Second),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{url: "http://" + ln.Addr().String() + "/query", cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- obs.Serve(ctx, obs.NewServer(ln.Addr().String(), h), ln, logger, 5*time.Second) }()
	return s, nil
}

// stop drains the server and waits for it to exit.
func (s *stack) stop() error {
	s.cancel()
	return <-s.done
}

// reqSample is one measured request: its completion offset from the phase
// start and its client-side latency.
type reqSample struct {
	end, lat time.Duration
}

// oracleSample is a request kept for the correctness oracle.
type oracleSample struct {
	req, resp []byte
	// remaining is the epsilon_remaining the server must report: the
	// budget minus ε per distinct query this principal has asked.
	remaining float64
}

// client is one analyst: its own principal, its own keep-alive
// connection, its own request stream.
type client struct {
	id          int
	principal   string
	http        *http.Client
	tr          *http.Transport
	url         string
	st          stream
	seed        uint64
	sampleEvery int

	asked map[string]bool
	spent float64
	seq   int

	attempted, failed int64
	firstErr          error
	samples           []oracleSample
	lats              []reqSample

	// tracer is non-nil in the traced phase.
	tracer *tracer
}

func newClients(w *workload, seed uint64, url string) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		tr := &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}
		cs[i] = &client{
			id:          i,
			principal:   fmt.Sprintf("analyst-%d", i),
			http:        &http.Client{Transport: tr, Timeout: 30 * time.Second},
			tr:          tr,
			url:         url,
			st:          w.newStream(seed, i),
			seed:        seed,
			sampleEvery: w.sampleEvery,
			asked:       map[string]bool{},
		}
	}
	return cs
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// sampled picks the oracle's seeded sample of requests.
func (c *client) sampled(seq int) bool {
	return splitmix(c.seed^uint64(c.id)<<48^uint64(seq))%uint64(c.sampleEvery) == 0
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

var deniedMark = []byte(`"denied":true`)

// do sends the client's next request and waits for the answer. start is
// the phase start; record keeps the latency sample.
func (c *client) do(start time.Time, record bool) {
	qj := c.st.next()
	b := body(qj)
	fresh := false
	if k := canonical(qj); !c.asked[k] {
		c.asked[k] = true
		c.spent += epsilon
		fresh = true
	}
	seq := c.seq
	c.seq++
	c.attempted++
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(b))
	if err != nil {
		c.fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(sdcquery.PrincipalHeader, c.principal)
	t0 := time.Now()
	resp, err := c.http.Do(req)
	var rb []byte
	if err == nil {
		rb, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	switch {
	case err != nil:
		c.fail(err)
		return
	case resp.StatusCode != http.StatusOK:
		c.fail(fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb)))
		return
	case bytes.Contains(rb, deniedMark):
		// No workload query can have an empty query set; a denial means
		// the workload is not what it claims to be.
		c.fail(fmt.Errorf("denied answer to %s: %s", b, bytes.TrimSpace(rb)))
		return
	}
	if record {
		c.lats = append(c.lats, reqSample{end: t1.Sub(start), lat: t1.Sub(t0)})
	}
	if c.tracer != nil {
		if err := c.tracer.request(c, seq, b, rb, fresh, t0, t1); err != nil {
			c.fail(err)
		}
		return
	}
	if c.sampled(seq) {
		c.samples = append(c.samples, oracleSample{req: b, resp: rb, remaining: budget - c.spent})
	}
}

// warm sends n requests from every client concurrently, unrecorded.
func warm(cs []*client, n int) {
	each(cs, func(c *client) {
		start := time.Now()
		for i := 0; i < n; i++ {
			c.do(start, false)
		}
	})
}

// measure runs every client's closed loop for d, appending the latency
// samples of the requests that completed within d. Their completion
// offsets count from offset, so successive slices of one measured phase
// share one clock of read time.
func measure(cs []*client, offset, d time.Duration) {
	start := time.Now()
	each(cs, func(c *client) {
		for time.Since(start) < d {
			c.do(start.Add(-offset), true)
		}
		for len(c.lats) > 0 && c.lats[len(c.lats)-1].end > offset+d {
			c.lats = c.lats[:len(c.lats)-1]
		}
	})
}

func each(cs []*client, fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// latencies merges the clients' samples and clears them.
func latencies(cs []*client) []reqSample {
	var out []reqSample
	for _, c := range cs {
		out = append(out, c.lats...)
		c.lats = nil
	}
	return out
}
