package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTokenBucketsAdmitAndRefill(t *testing.T) {
	tb, err := NewTokenBuckets(10, 2, 0) // 10 req/s, burst 2
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	tb.now = func() time.Time { return now }

	// The burst admits immediately; the next request is throttled with a
	// sensible Retry-After.
	for i := 0; i < 2; i++ {
		if ok, _ := tb.Allow("alice"); !ok {
			t.Fatalf("burst request %d throttled", i)
		}
	}
	ok, retry := tb.Allow("alice")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if retry <= 0 || retry > 150*time.Millisecond {
		t.Errorf("retry-after = %v, want ≈100ms at 10 req/s", retry)
	}
	// Other clients have their own buckets.
	if ok, _ := tb.Allow("bob"); !ok {
		t.Error("bob throttled by alice's bucket")
	}
	// After the advertised wait, alice is admitted again.
	now = now.Add(retry)
	if ok, _ := tb.Allow("alice"); !ok {
		t.Error("request after Retry-After still throttled")
	}
	// A long idle period refills only to the burst cap.
	now = now.Add(time.Hour)
	admittedAfterIdle := 0
	for i := 0; i < 10; i++ {
		if ok, _ := tb.Allow("alice"); ok {
			admittedAfterIdle++
		}
	}
	if admittedAfterIdle != 2 {
		t.Errorf("idle refill admitted %d, want burst cap 2", admittedAfterIdle)
	}
}

func TestTokenBucketsValidationAndDefaults(t *testing.T) {
	if _, err := NewTokenBuckets(0, 1, 0); err == nil {
		t.Error("accepted rate 0")
	}
	tb, err := NewTokenBuckets(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.burst != 10 {
		t.Errorf("default burst = %g, want 2·rate = 10", tb.burst)
	}
	if tb.maxClients != DefaultMaxClients {
		t.Errorf("default maxClients = %d", tb.maxClients)
	}
}

func TestTokenBucketsBoundedClients(t *testing.T) {
	tb, err := NewTokenBuckets(1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(2000, 0)
	tb.now = func() time.Time { return now }
	for i := 0; i < 100; i++ {
		tb.Allow(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		now = now.Add(time.Millisecond)
	}
	if n := tb.Clients(); n > 9 { // maxClients + the newly inserted one
		t.Errorf("client map grew to %d with maxClients 8", n)
	}
}

func TestTokenBucketsConcurrent(t *testing.T) {
	tb, err := NewTokenBuckets(1000, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	admitted := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if ok, _ := tb.Allow("shared"); ok {
					admitted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range admitted {
		total += n
	}
	// 400 requests against burst 100 + a few refilled tokens: the bucket
	// must never admit more than its capacity plus the refill during the
	// test's wall time (well under 1s ⇒ < 100+1000 tokens) and at least the
	// burst.
	if total < 100 || total > 400 {
		t.Errorf("concurrent admits = %d, want within [100, 400]", total)
	}
}
