package main

import (
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/obs"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

// serveOptsFor parses args through the real serve flag set, so the tests
// exercise exactly the defaults and types cmdServe sees.
func serveOptsFor(t *testing.T, args ...string) *serveOpts {
	t.Helper()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	o := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// TestValidateServeStorageRejectsBadFlags pins that storage
// misconfiguration is caught up front with a clean error naming the flag,
// before any CSV is read or store directory touched.
func TestValidateServeStorageRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-memcap", "-5"}, "-memcap"},
		{[]string{"-memcap", "1024"}, "-datadir"}, // memcap without a disk tier
	}
	for _, tc := range cases {
		o := serveOptsFor(t, tc.args...)
		if _, err := validateServeStorage(o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("validateServeStorage(%v) = %v, want error naming %s", tc.args, err, tc.want)
		}
	}
}

func TestValidateServeStorageUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; no unwritable directories")
	}
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	o := serveOptsFor(t, "-datadir", filepath.Join(dir, "data"))
	if _, err := validateServeStorage(o); err == nil {
		t.Fatal("unwritable -datadir accepted")
	}
}

func TestValidateServeStorageDetectsRecovery(t *testing.T) {
	dir := t.TempDir()
	o := serveOptsFor(t, "-datadir", dir)
	recovery, err := validateServeStorage(o)
	if err != nil || recovery {
		t.Fatalf("fresh dir: recovery=%v err=%v", recovery, err)
	}
	d, err := dataset.Synth("trial", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.CreateFromDataset(dir, d, store.Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recovery, err = validateServeStorage(o)
	if err != nil || !recovery {
		t.Fatalf("existing store: recovery=%v err=%v", recovery, err)
	}
	// Recovery serves the committed rows, so a conflicting -in is refused.
	o = serveOptsFor(t, "-datadir", dir, "-in", "other.csv")
	if _, err := validateServeStorage(o); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Fatalf("recovery with -in accepted: %v", err)
	}
}

// TestServeHandlerInstrumentsEveryRoute pins that every route
// sdcquery.NewHandler mounts gets its own http_requests_total and
// http_request_seconds series through the serve command's middleware
// chain, and only unmounted paths fall into endpoint="other".
func TestServeHandlerInstrumentsEveryRoute(t *testing.T) {
	srv, err := sdcquery.NewServer(dataset.Dataset2(), sdcquery.Config{Protection: sdcquery.NoProtection})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := serveHandler(srv, serveOptsFor(t, "-ownertoken", "tok"), reg, log.New(io.Discard, "", 0))
	serve := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	routes := []string{"/query", "/querybatch", "/sql", "/protect", "/log", "/metrics"}
	for _, path := range routes {
		if code := serve(path); code == http.StatusNotFound {
			t.Fatalf("GET %s = 404: not a mounted route", path)
		}
	}
	if code := serve("/nope"); code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", code)
	}
	var exposition strings.Builder
	if _, err := reg.WriteTo(&exposition); err != nil {
		t.Fatal(err)
	}
	for _, endpoint := range append(routes, "other") {
		if got := reg.Counter(obs.Label("http_requests_total", "endpoint", endpoint)).Value(); got != 1 {
			t.Errorf("http_requests_total{endpoint=%q} = %d, want 1", endpoint, got)
		}
		if series := obs.Label("http_request_seconds_count", "endpoint", endpoint); !strings.Contains(exposition.String(), series+" 1\n") {
			t.Errorf("exposition lacks %s 1", series)
		}
	}
}
