package lqg

import (
	"math"
	"math/rand"
	"testing"

	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/mat"
	"ctrlsched/internal/plant"
)

// restoreDefaultCache resets the process-wide cache configuration and
// contents after tests that shrink or churn it.
func restoreDefaultCache(t *testing.T) {
	t.Cleanup(func() {
		kmemo.Configure(1, 1<<20) // force a swap so the next call rebuilds
		kmemo.Configure(kmemo.DefaultEntries, kmemo.DefaultBytes)
	})
}

func designsEqual(t *testing.T, a, b *Design) {
	t.Helper()
	mats := []struct {
		name string
		x, y *mat.Matrix
	}{
		{"Phi", a.Phi, b.Phi}, {"Gamma", a.Gamma, b.Gamma},
		{"Q1d", a.Q1d, b.Q1d}, {"Q12d", a.Q12d, b.Q12d}, {"Q2d", a.Q2d, b.Q2d},
		{"Rd", a.Rd, b.Rd}, {"L", a.L, b.L}, {"Kf", a.Kf, b.Kf},
		{"S", a.S, b.S}, {"Pf", a.Pf, b.Pf},
	}
	for _, m := range mats {
		if !m.x.Equal(m.y) {
			t.Fatalf("%s differs between direct and cached synthesis", m.name)
		}
	}
	if a.Cost != b.Cost || a.JNoise != b.JNoise || a.R2d != b.R2d || a.H != b.H {
		t.Fatalf("scalars differ: cost %v vs %v, jnoise %v vs %v",
			a.Cost, b.Cost, a.JNoise, b.JNoise)
	}
}

// TestSynthesizeCachedBitIdentical pins the tentpole's core promise:
// the cached synthesis returns bit-identical designs to direct calls,
// keyed by plant content (a second plant instance with the same
// numbers hits the same entry).
func TestSynthesizeCachedBitIdentical(t *testing.T) {
	restoreDefaultCache(t)
	kmemo.Configure(kmemo.DefaultEntries, kmemo.DefaultBytes)
	kmemo.Default().Reset()

	for _, h := range []float64{0.002, 0.006, 0.017, 0.030} {
		direct, errD := Synthesize(plant.DCServo(), h)
		cached, errC := SynthesizeCached(plant.DCServo(), h) // fresh plant instance
		if (errD == nil) != (errC == nil) {
			t.Fatalf("h=%v: direct err %v, cached err %v", h, errD, errC)
		}
		if errD != nil {
			continue
		}
		designsEqual(t, direct, cached)
		// Content-keyed: a third instance must hit the same entry.
		again, err := SynthesizeCached(plant.DCServo(), h)
		if err != nil || again != cached {
			t.Fatalf("h=%v: content-identical plant did not hit the cache", h)
		}
	}
}

// TestCachedKernelsBitIdenticalUnderChurn is the randomized property
// test of the issue: over random (plant, period, delay) draws against a
// deliberately tiny cache — so entries are evicted mid-stream and many
// calls are re-computations — every cached kernel result must equal the
// direct computation bit for bit.
func TestCachedKernelsBitIdenticalUnderChurn(t *testing.T) {
	restoreDefaultCache(t)
	kmemo.Configure(12, 1<<20) // tiny: forces eviction churn
	kmemo.Default().Reset()

	rng := rand.New(rand.NewSource(7))
	lib := plant.Library()
	for trial := 0; trial < 120; trial++ {
		p := lib[rng.Intn(len(lib))]
		h := p.HMin * math.Pow(p.HMax/p.HMin, rng.Float64())
		// Quantize so some draws repeat (hit path) and some are fresh.
		h = math.Round(h*1e4) / 1e4
		if h <= 0 {
			continue
		}

		wantCost := Cost(p, h)
		gotCost := CostCached(p, h)
		if math.Float64bits(wantCost) != math.Float64bits(gotCost) {
			t.Fatalf("trial %d: Cost(%s, %v) = %v direct, %v cached", trial, p.Name, h, wantCost, gotCost)
		}

		d, err := SynthesizeCached(p, h)
		if err != nil {
			if _, errD := Synthesize(p, h); errD == nil {
				t.Fatalf("trial %d: cached synthesis failed where direct succeeds: %v", trial, err)
			}
			continue
		}
		delay := rng.Float64() * 2 * h
		want := DelayedCost(d, delay)
		got := DelayedCostCached(d, delay)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: DelayedCost(%s@%v, %v) = %v direct, %v cached",
				trial, p.Name, h, delay, want, got)
		}
	}
	if st := kmemo.Default().Stats(); st.Evictions == 0 {
		t.Fatalf("churn test never evicted (stats %+v) — capacity too large to exercise eviction", st)
	}
}

// TestSynthesizeCachedError pins that deterministic failures are cached
// and re-served identically: Kalman-pathological sampling of an
// undamped oscillator has no stabilizing design, cached or not.
func TestSynthesizeCachedError(t *testing.T) {
	restoreDefaultCache(t)
	kmemo.Configure(kmemo.DefaultEntries, kmemo.DefaultBytes)
	kmemo.Default().Reset()

	p := plant.HarmonicOscillator(10)
	h := math.Pi / 10 // pathological: h = kπ/ω
	_, errD := Synthesize(plant.HarmonicOscillator(10), h)
	_, errC1 := SynthesizeCached(p, h)
	_, errC2 := SynthesizeCached(p, h)
	if (errD == nil) != (errC1 == nil) || (errC1 == nil) != (errC2 == nil) {
		t.Fatalf("error caching inconsistent: direct %v, cached %v then %v", errD, errC1, errC2)
	}
}

// TestDisabledCacheMatchesDirect pins the -kernel-cache-off contract:
// with the cache disabled the wrappers are exactly the direct kernels.
func TestDisabledCacheMatchesDirect(t *testing.T) {
	restoreDefaultCache(t)
	kmemo.Disable()

	p := plant.DCServo()
	d1, err1 := SynthesizeCached(p, 0.006)
	d2, err2 := Synthesize(p, 0.006)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	designsEqual(t, d2, d1)
	if a, b := DelayedCostCached(d1, 0.004), DelayedCost(d2, 0.004); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("disabled DelayedCostCached %v != direct %v", a, b)
	}
	if kmemo.Default().Enabled() {
		t.Fatal("cache unexpectedly enabled")
	}
}

// TestFingerprintContentSensitivity: designs of different plants or
// periods must have different fingerprints, identical content the same.
func TestFingerprintContentSensitivity(t *testing.T) {
	a := designFingerprint(plant.DCServo(), 0.006)
	if b := designFingerprint(plant.DCServo(), 0.006); a != b {
		t.Fatal("fingerprint differs across identical plant instances")
	}
	if b := designFingerprint(plant.DCServo(), 0.007); a == b {
		t.Fatal("fingerprint insensitive to the period")
	}
	if b := designFingerprint(plant.FastServo(), 0.006); a == b {
		t.Fatal("fingerprint insensitive to the plant")
	}
	// The name is excluded on purpose: same numbers, same entry.
	renamed := plant.DCServo()
	renamed.Name = "renamed"
	if b := designFingerprint(renamed, 0.006); a != b {
		t.Fatal("fingerprint depends on the plant name")
	}
}

// TestSynthesizeColdBitIdentity pins cold synthesis as deterministic to
// the bit: every cache tier and snapshot relies on two runs over the same
// (plant, period) agreeing exactly.
func TestSynthesizeColdBitIdentity(t *testing.T) {
	p := plant.InvertedPendulum()
	d1, err := Synthesize(p, 0.008)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Synthesize(p, 0.008)
	if err != nil {
		t.Fatal(err)
	}
	designsEqual(t, d1, d2)
}

// TestZeroFingerprintBypassesCache pins the guard in DelayedCostCached:
// designs built by hand carry no fingerprint, and caching them under the
// zero key would make the second one read the first one's cost.
func TestZeroFingerprintBypassesCache(t *testing.T) {
	p := plant.DCServo()
	for _, h := range []float64{0.006, 0.008} {
		d, err := Synthesize(p, h)
		if err != nil {
			t.Fatal(err)
		}
		if d.Fingerprint() == (kmemo.Key{}) {
			t.Fatal("synthesized design lost its fingerprint")
		}
		hand := *d
		hand.fp = kmemo.Key{}
		if got, want := DelayedCostCached(&hand, 0.001), DelayedCost(&hand, 0.001); got != want {
			t.Fatalf("h=%v: cached delayed cost %v != direct %v for a hand-built design", h, got, want)
		}
	}
}
