package sdcquery

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/obs"
	"privacy3d/internal/store"
)

// spilledServer writes a durable datadir of four sealed segments and
// serves it with cfg from a store whose resident cap keeps at most one
// segment decoded, so queries read the others from their files. It
// returns the server and the data directory.
func spilledServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := dataset.Synth("trial", 4*256+30, 42)
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewServer(d, Config{Protection: NoProtection, SegmentSize: 256, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{MemCap: 1}) // at most one segment resident
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerFromStore(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, dir
}

// flipSegByte flips the low bit of a height value in segment file name of
// dir; flipping it again restores the file.
func flipSegByte(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, name)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 1
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPQueryOverCorruptSegmentFails serves a datadir whose segments
// stay spilled and flips one byte of a segment file under the live
// server: /query answers with a JSON error naming the file, with and
// without a WHERE clause, debits no ε, and the server answers again once
// the byte is restored.
func TestHTTPQueryOverCorruptSegmentFails(t *testing.T) {
	const seg = "SEG-00000001"
	srv, dir := spilledServer(t, Config{Protection: DifferentialPrivacy, Epsilon: 0.5, EpsilonBudget: 2})
	h := httptest.NewServer(NewHTTPHandler(srv))
	defer h.Close()

	const (
		banded = `{"agg": "SUM", "attr": "weight", "where": [{"col": "height", "op": ">", "v": 170}]}`
		whole  = `{"agg": "SUM", "attr": "weight"}`
	)
	ask := func(query string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, h.URL+"/query", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(PrincipalHeader, "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("status %s: body is not JSON: %v", resp.Status, err)
		}
		return resp.StatusCode, body
	}

	flipSegByte(t, dir, seg)
	for _, query := range []string{banded, banded, whole} {
		code, body := ask(query)
		msg, _ := body["error"].(string)
		if code != http.StatusInternalServerError || !strings.Contains(msg, seg) || !strings.Contains(msg, "checksum") {
			t.Fatalf("%s over a corrupt segment: status %d, body %v; want 500 with an error naming the file's checksum", query, code, body)
		}
	}
	if rem, _ := srv.BudgetRemaining("alice"); rem != 2 {
		t.Fatalf("failed queries debited ε: %g remaining, want 2", rem)
	}

	flipSegByte(t, dir, seg) // restore the byte
	code, body := ask(banded)
	if code != http.StatusOK || body["epsilon_remaining"] != 1.5 {
		t.Fatalf("query after restoring the file: status %d, body %v; want 200 with ε 1.5 remaining", code, body)
	}
}

// TestAskBatchOverCorruptSegmentKeepsCachedAnswers warms one query into
// the answer cache, then corrupts every segment file (whichever one the
// warm query left resident is never re-read) and submits a batch holding
// that query and two misses: the cached query keeps its cached answer (it
// reads no segment), and each miss fails with ErrUnreadable — none comes
// back as a zero answer.
func TestAskBatchOverCorruptSegmentKeepsCachedAnswers(t *testing.T) {
	srv, dir := spilledServer(t, Config{Protection: NoProtection, AnswerCacheCap: 64})
	warm := Query{Agg: Sum, Attr: "weight", Where: Predicate{{Col: "height", Op: Gt, V: 170}}}
	want, err := srv.Ask(warm)
	if err != nil {
		t.Fatal(err)
	}
	if want.Value == 0 {
		t.Fatal("warm query sums to 0; the test cannot tell a cached answer from a zero one")
	}

	for i := 0; i < 4; i++ {
		flipSegByte(t, dir, fmt.Sprintf("SEG-%08d", i))
	}
	misses := []Query{
		{Agg: Sum, Attr: "weight", Where: Predicate{{Col: "height", Op: Lt, V: 160}}},
		{Agg: Count},
	}
	answers, errs := srv.AskBatch("", append([]Query{warm}, misses...))
	if errs[0] != nil || answers[0] != want {
		t.Fatalf("cached query in a failing batch: answer %+v, error %v; want its cached %+v", answers[0], errs[0], want)
	}
	for i := 1; i < len(answers); i++ {
		if !errors.Is(errs[i], store.ErrUnreadable) || !strings.Contains(errs[i].Error(), "checksum") {
			t.Fatalf("missed query %d over corrupt segments: answer %+v, error %v; want a checksum ErrUnreadable",
				i, answers[i], errs[i])
		}
	}
}

// TestHTTPProtectOverCorruptSegmentFails corrupts every segment file of a
// served datadir whose segments stay spilled and asks for a release:
// POST /protect answers with a JSON error naming a segment file's
// checksum, the panic recovery records no panic, and the release is served
// once the bytes are restored.
func TestHTTPProtectOverCorruptSegmentFails(t *testing.T) {
	srv, dir := spilledServer(t, Config{Protection: NoProtection})
	reg := obs.NewRegistry()
	h := httptest.NewServer(obs.Chain(NewHandler(srv, HandlerConfig{OwnerToken: testOwnerToken, Registry: reg}), obs.Recover(reg, nil)))
	defer h.Close()
	protect := func() (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, h.URL+"/protect", strings.NewReader(`{"method": "mdav", "seed": 7, "params": {"k": 3}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+testOwnerToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("status %s: body is not JSON: %v", resp.Status, err)
		}
		return resp.StatusCode, body
	}

	for i := 0; i < 4; i++ {
		flipSegByte(t, dir, fmt.Sprintf("SEG-%08d", i))
	}
	code, body := protect()
	msg, _ := body["error"].(string)
	if code != http.StatusInternalServerError || !strings.Contains(msg, "SEG-0000000") || !strings.Contains(msg, "checksum") {
		t.Fatalf("/protect over corrupt segments: status %d, body %v; want 500 with an error naming a file's checksum", code, body)
	}
	if n := reg.Counter(obs.Label("http_panics_total", "endpoint", "/protect")).Value(); n != 0 {
		t.Fatalf("/protect over corrupt segments panicked %d times", n)
	}
	if _, err := srv.Dataset(); !errors.Is(err, store.ErrUnreadable) {
		t.Fatalf("Server.Dataset over corrupt segments: %v; want an ErrUnreadable", err)
	}

	for i := 0; i < 4; i++ {
		flipSegByte(t, dir, fmt.Sprintf("SEG-%08d", i)) // restore the byte
	}
	if code, body := protect(); code != http.StatusOK || body["csv"] == "" {
		t.Fatalf("/protect after restoring the files: status %d, body %v; want 200 with a release", code, body)
	}
}
