package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// TestSamplerRateOneIdentical pins the identity contract: rate 1.0 with
// an unlimited budget reports exactly the events of an unsampled run,
// with every counter equal except SampledAccesses itself.
func TestSamplerRateOneIdentical(t *testing.T) {
	parallel := func(u, v core.StrandID) bool { return false }
	run := func(sample bool) ([]RaceEvent, Stats) {
		e := newEnv(parallel)
		if sample {
			e.h.SetSampling(1.0, 0, 0x5eed)
		}
		e.write(0, 64, 1)
		e.read(16, 64, 2)  // races with 1 on [16,64)
		e.write(32, 16, 3) // races with 1 (writer) and 2 (readers)
		e.read(0, 8, 1)    // owned fast path, no sampler consult
		return e.races, e.h.Stats()
	}
	fullEv, fullSt := run(false)
	smpEv, smpSt := run(true)
	if len(fullEv) != len(smpEv) {
		t.Fatalf("event count differs: full %d, sampled %d", len(fullEv), len(smpEv))
	}
	for i := range fullEv {
		if fullEv[i] != smpEv[i] {
			t.Fatalf("event %d differs: full %+v, sampled %+v", i, fullEv[i], smpEv[i])
		}
	}
	if smpSt.SampledAccesses == 0 || smpSt.SkippedByBudget != 0 {
		t.Fatalf("rate 1.0: want SampledAccesses > 0 and SkippedByBudget == 0, got %d/%d",
			smpSt.SampledAccesses, smpSt.SkippedByBudget)
	}
	smpSt.SampledAccesses = 0
	if fullSt != smpSt {
		t.Fatalf("stats differ beyond SampledAccesses:\nfull    %+v\nsampled %+v", fullSt, smpSt)
	}
}

// TestSamplerSubset pins the soundness asymmetry at a fractional rate:
// the sampled run's racy addresses are a subset of the full run's, and
// unsampled accesses still installed their state (no extra races appear
// at addresses the full run considers clean).
func TestSamplerSubset(t *testing.T) {
	parallel := func(u, v core.StrandID) bool { return u == 1 && v == 2 }
	run := func(rate float64) map[uint64]bool {
		e := newEnv(parallel)
		e.h.SetSampling(rate, 0, 42)
		e.write(0, 256, 1)
		e.read(0, 256, 2) // ordered after 1: race-free
		e.write(0, 256, 3)
		e.read(128, 64, 4)
		addrs := map[uint64]bool{}
		for _, ev := range e.races {
			addrs[ev.Addr] = true
		}
		return addrs
	}
	full := run(1.0)
	if len(full) == 0 {
		t.Fatal("workload reports no races at rate 1.0; test is vacuous")
	}
	for _, rate := range []float64{0.5, 0.25, 0.05} {
		sampled := run(rate)
		for a := range sampled {
			if !full[a] {
				t.Fatalf("rate %v: race at %d not reported by the full run", rate, a)
			}
		}
		if rate <= 0.25 && len(sampled) >= len(full) {
			t.Logf("rate %v: %d of %d racy addresses (expected misses, got none — seed-dependent, not fatal)",
				rate, len(sampled), len(full))
		}
	}
}

// TestSamplerBudgetAndRefresh pins the per-page coupon: a budget of 1
// admits one slow-path access per page per generation (the rest install
// without a verdict), the budget refreshes when the generation advances,
// and — the install guarantee — a later sampled query reports the racer
// identity the unsampled installs left behind.
func TestSamplerBudgetAndRefresh(t *testing.T) {
	parallel := func(u, v core.StrandID) bool { return false }
	e := newEnv(parallel)
	e.h.SetSampling(1.0, 1, 7)

	e.write(0, 10, 1) // fresh words: owned fast path, no consult
	e.write(0, 10, 2) // all parallel with 1: slow path ×10
	if len(e.races) != 1 {
		t.Fatalf("budget 1: want exactly 1 reported race, got %d", len(e.races))
	}
	st := e.h.Stats()
	if st.SampledAccesses != 1 || st.SkippedByBudget != 9 {
		t.Fatalf("want 1 sampled / 9 budget-skipped, got %d / %d",
			st.SampledAccesses, st.SkippedByBudget)
	}

	// Next generation: the coupon refreshes, and the read's racer is
	// strand 2 — the unsampled writes installed themselves correctly.
	e.ctx.Gen++
	e.races = e.races[:0]
	e.read(5, 1, 3)
	if len(e.races) != 1 || e.races[0].Racer.Prev != 2 || !e.races[0].Racer.PrevWrite {
		t.Fatalf("after refresh: want read race against writer 2, got %+v", e.races)
	}
	if st := e.h.Stats(); st.SampledAccesses != 2 {
		t.Fatalf("refresh did not admit the new generation's access: %+v", st)
	}
}

// TestSamplerAdmitDeterministic pins the admission hash: pure in
// (seed, addr, gen), and roughly proportional to the rate.
func TestSamplerAdmitDeterministic(t *testing.T) {
	var h History
	h.SetSampling(0.5, 0, 123)
	admitted := 0
	for addr := uint64(0); addr < 10000; addr++ {
		a := h.smp.admit(addr, 3)
		if b := h.smp.admit(addr, 3); a != b {
			t.Fatalf("admit(%d) not deterministic", addr)
		}
		if a {
			admitted++
		}
	}
	if admitted < 4500 || admitted > 5500 {
		t.Fatalf("rate 0.5 admitted %d of 10000", admitted)
	}
	// A different generation admits a different (but still deterministic)
	// set — the sampler must not starve an address forever.
	diff := 0
	for addr := uint64(0); addr < 10000; addr++ {
		if h.smp.admit(addr, 3) != h.smp.admit(addr, 4) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("admission set identical across generations")
	}
}

// TestSamplerBudgetClamp pins the coupon-field clamp.
func TestSamplerBudgetClamp(t *testing.T) {
	var h History
	h.SetSampling(1.0, 1<<30, 0)
	if h.smp.budget != maxSamplingBudget {
		t.Fatalf("budget not clamped: %d", h.smp.budget)
	}
	h.SetSampling(0, 99, 1)
	if h.smp.on {
		t.Fatal("rate 0 must disarm the sampler")
	}
}
