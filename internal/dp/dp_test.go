package dp

import (
	"math"
	"testing"

	"privacy3d/internal/dataset"
)

func TestSensitivityRules(t *testing.T) {
	b := Bounds{Lo: -10, Hi: 30}
	if s, err := Sensitivity(Count, Bounds{}, 0); err != nil || s != 1 {
		t.Errorf("count sensitivity = %g, %v", s, err)
	}
	if s, err := Sensitivity(Sum, b, 5); err != nil || s != 30 {
		t.Errorf("sum sensitivity = %g, %v (want max(|-10|,|30|)=30)", s, err)
	}
	if s, err := Sensitivity(Mean, b, 8); err != nil || s != 5 {
		t.Errorf("mean sensitivity = %g, %v (want 40/8=5)", s, err)
	}
	// n < 1 clamps to 1 instead of dividing by zero.
	if s, err := Sensitivity(Mean, b, 0); err != nil || s != 40 {
		t.Errorf("mean sensitivity at n=0 = %g, %v", s, err)
	}
	for _, bad := range []Bounds{
		{Lo: math.Inf(-1), Hi: 1},
		{Lo: 0, Hi: math.NaN()},
		{Lo: 2, Hi: 1},
	} {
		if _, err := Sensitivity(Sum, bad, 1); err == nil {
			t.Errorf("Sensitivity accepted bounds %+v", bad)
		}
	}
}

func TestScaleCalibration(t *testing.T) {
	if s, err := (NoiseParams{Mechanism: Laplace, Sensitivity: 4, Epsilon: 2}).Scale(); err != nil || s != 2 {
		t.Errorf("laplace scale = %g, %v (want Δ/ε = 2)", s, err)
	}
	want := 4 * math.Sqrt(2*math.Log(1.25/1e-5)) / 2
	if s, err := (NoiseParams{Mechanism: Gaussian, Sensitivity: 4, Epsilon: 2, Delta: 1e-5}).Scale(); err != nil || math.Abs(s-want) > 1e-12 {
		t.Errorf("gaussian sigma = %g, %v (want %g)", s, err, want)
	}
	for _, bad := range []NoiseParams{
		{Mechanism: Laplace, Sensitivity: 1, Epsilon: 0},
		{Mechanism: Laplace, Sensitivity: -1, Epsilon: 1},
		{Mechanism: Gaussian, Sensitivity: 1, Epsilon: 1, Delta: 0},
		{Mechanism: Gaussian, Sensitivity: 1, Epsilon: 1, Delta: 1},
	} {
		if _, err := bad.Scale(); err == nil {
			t.Errorf("Scale accepted %+v", bad)
		}
	}
}

// TestInverseCDFs pins the samplers to their analytic quantiles and checks
// the endpoints stay finite (rand.Float64 can return exactly 0).
func TestInverseCDFs(t *testing.T) {
	if v := LaplaceInv(0.5, 3); v != 0 {
		t.Errorf("LaplaceInv median = %g", v)
	}
	// P(X ≤ b·ln 2) = 0.75 for Laplace(b).
	if v := LaplaceInv(0.75, 1); math.Abs(v-math.Ln2) > 1e-12 {
		t.Errorf("LaplaceInv(0.75, 1) = %g, want ln 2", v)
	}
	if v := LaplaceInv(0.25, 1); math.Abs(v+math.Ln2) > 1e-12 {
		t.Errorf("LaplaceInv(0.25, 1) = %g, want −ln 2", v)
	}
	if v := GaussianInv(0.5, 2); v != 0 {
		t.Errorf("GaussianInv median = %g", v)
	}
	// Φ⁻¹(0.975) ≈ 1.959964 for the standard normal.
	if v := GaussianInv(0.975, 1); math.Abs(v-1.9599639845400545) > 1e-9 {
		t.Errorf("GaussianInv(0.975, 1) = %g", v)
	}
	for _, u := range []float64{0, 1e-320, 1, math.Nextafter(1, 0)} {
		if v := LaplaceInv(u, 1); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("LaplaceInv(%g) = %g, want finite", u, v)
		}
		if v := GaussianInv(u, 1); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("GaussianInv(%g) = %g, want finite", u, v)
		}
	}
}

// TestNoiseDeterministicPerKey is the seeding contract: noise is a pure
// function of (seed, key, params) — identical on repetition, different
// across keys and seeds.
func TestNoiseDeterministicPerKey(t *testing.T) {
	p := NoiseParams{Mechanism: Laplace, Sensitivity: 1, Epsilon: 0.5}
	a, err := Noise(7, "alice\x00SELECT COUNT(*) WHERE TRUE", p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Noise(7, "alice\x00SELECT COUNT(*) WHERE TRUE", p)
	if a != b {
		t.Errorf("same (seed,key) drew %g then %g", a, b)
	}
	c, _ := Noise(7, "bob\x00SELECT COUNT(*) WHERE TRUE", p)
	d, _ := Noise(8, "alice\x00SELECT COUNT(*) WHERE TRUE", p)
	if a == c || a == d {
		t.Errorf("noise not keyed: alice/seed7=%g bob=%g seed8=%g", a, c, d)
	}
	if _, err := Noise(7, "k", NoiseParams{Mechanism: Laplace, Sensitivity: 1, Epsilon: 0}); err == nil {
		t.Error("Noise accepted epsilon = 0")
	}
}

// TestNoiseDistributionMoments sanity-checks the samplers statistically:
// over many keys the empirical standard deviation must approach the
// calibrated scale's (√2·b for Laplace, σ for Gaussian).
func TestNoiseDistributionMoments(t *testing.T) {
	const n = 20000
	lap := NoiseParams{Mechanism: Laplace, Sensitivity: 2, Epsilon: 1}               // b = 2, sd = 2√2
	gau := NoiseParams{Mechanism: Gaussian, Sensitivity: 1, Epsilon: 1, Delta: 1e-5} // σ ≈ 4.84
	var sumL, sumL2, sumG, sumG2 float64
	for i := 0; i < n; i++ {
		key := string(rune(i)) + "/moment"
		l, err := Noise(42, key, lap)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Noise(42, key, gau)
		if err != nil {
			t.Fatal(err)
		}
		sumL += l
		sumL2 += l * l
		sumG += g
		sumG2 += g * g
	}
	sdL := math.Sqrt(sumL2/n - (sumL/n)*(sumL/n))
	if want := 2 * math.Sqrt2; math.Abs(sdL-want)/want > 0.05 {
		t.Errorf("laplace empirical sd = %g, want ≈ %g", sdL, want)
	}
	sigma, _ := gau.Scale()
	sdG := math.Sqrt(sumG2/n - (sumG/n)*(sumG/n))
	if math.Abs(sdG-sigma)/sigma > 0.05 {
		t.Errorf("gaussian empirical sd = %g, want ≈ %g", sdG, sigma)
	}
	if math.Abs(sumL/n) > 0.1 || math.Abs(sumG/n)/sigma > 0.05 {
		t.Errorf("noise not centred: laplace mean %g, gaussian mean %g", sumL/n, sumG/n)
	}
}

func TestColumnBounds(t *testing.T) {
	d := dataset.New(
		dataset.Attribute{Name: "x", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
	)
	for _, v := range []float64{3, -1, 7, 2} {
		d.MustAppend(v)
	}
	if b := ColumnBounds(d, 0); b.Lo != -1 || b.Hi != 7 {
		t.Errorf("ColumnBounds = %+v", b)
	}
}
