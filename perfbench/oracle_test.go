package main

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"privacy3d/internal/dataset"
	"privacy3d/internal/sdcquery"
	"privacy3d/internal/store"
)

func smallServer(t *testing.T) *served {
	t.Helper()
	d, err := dataset.Synth("trial", 3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.FromDatasetSharded(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sdcquery.NewServerFromStore(st, serverConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	return &served{srv: srv, st: st}
}

// TestOracleMatchesServedBytes checks the oracle against the real stack:
// the twin's answers, with the predicted epsilon_remaining, reproduce the
// served bodies byte for byte, including repeats (cache hits, no debit),
// and a single flipped byte is caught.
func TestOracleMatchesServedBytes(t *testing.T) {
	live, twin := smallServer(t), smallServer(t)
	stk, err := startStack(live.srv)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stk.stop(); err != nil {
			t.Error(err)
		}
	}()
	s := newMissStream(4, 0)
	qs := []sdcquery.QueryJSON{s.next(), s.next(), s.next()}
	qs = append(qs, qs[0]) // a repeat re-releases without a second debit
	spent := 0.0
	asked := map[string]bool{}
	for _, qj := range qs {
		b := body(qj)
		if k := canonical(qj); !asked[k] {
			asked[k] = true
			spent += epsilon
		}
		req, err := http.NewRequest(http.MethodPost, stk.url, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(sdcquery.PrincipalHeader, "analyst-0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, rb)
		}
		q, err := decodeQuery(b)
		if err != nil {
			t.Fatal(err)
		}
		a, askErr := twin.srv.AskAs("analyst-0", q)
		if err := compareAnswer(a, askErr, b, rb, budget-spent); err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), rb...)
		bad[len(bad)/2] ^= 1
		if compareAnswer(a, askErr, b, bad, budget-spent) == nil {
			t.Fatal("a corrupted body passed the oracle")
		}
	}
	http.DefaultClient.CloseIdleConnections()
}
