package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"privacy3d/internal/sdcquery"
)

// expectedBody renders the /query response body the handler must send for
// answer a. epsilon_remaining is the benchmark's own prediction (the
// budget minus ε per distinct query the principal has asked), not the
// twin's: the twin re-answers only a sample, so its ledger has fewer
// debits than the served one.
func expectedBody(a sdcquery.Answer, remaining float64) []byte {
	aj := sdcquery.AnswerJSON{
		Denied: a.Denied, Reason: a.Reason, Value: a.Value,
		Lo: a.Lo, Hi: a.Hi, Interval: a.Interval,
	}
	if a.Budgeted {
		eps := a.Epsilon
		aj.Epsilon, aj.EpsilonRemaining = &eps, &remaining
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(aj); err != nil {
		panic(err) // a flat struct of numbers and strings always encodes
	}
	return buf.Bytes()
}

// decodeQuery parses a /query body the way the handler does.
func decodeQuery(req []byte) (sdcquery.Query, error) {
	var qj sdcquery.QueryJSON
	if err := json.Unmarshal(req, &qj); err != nil {
		return sdcquery.Query{}, err
	}
	return qj.ToQuery()
}

// compareAnswer checks a served response byte for byte against the twin's
// answer to the same query from the same principal.
func compareAnswer(a sdcquery.Answer, err error, req, resp []byte, remaining float64) error {
	if err != nil {
		return fmt.Errorf("oracle: twin refused %s: %w", req, err)
	}
	if want := expectedBody(a, remaining); !bytes.Equal(want, resp) {
		return fmt.Errorf("oracle mismatch for %s:\n served %s\n   twin %s", req, bytes.TrimSpace(resp), bytes.TrimSpace(want))
	}
	return nil
}

// checkSamples re-answers every client's sampled requests serially on the
// twin, in each client's order, and returns how many were checked and how
// many mismatched (with the first mismatch).
func checkSamples(tw *served, cs []*client) (checked, bad int, first error) {
	for _, c := range cs {
		for _, s := range c.samples {
			checked++
			q, err := decodeQuery(s.req)
			var a sdcquery.Answer
			if err == nil {
				a, err = tw.srv.AskAs(c.principal, q)
			}
			if err := compareAnswer(a, err, s.req, s.resp, s.remaining); err != nil {
				bad++
				if first == nil {
					first = err
				}
			}
		}
	}
	return checked, bad, first
}
