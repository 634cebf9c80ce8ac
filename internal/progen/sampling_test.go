package progen

import (
	"reflect"
	"testing"

	"futurerd/internal/detect"
)

// Sampling differentials: the always-on sampling front-end promises
// exactly two things, and these arms pin both against full detection on
// generated programs.
//
//  1. Rate 1.0 (unlimited budget) is *identical* to full detection —
//     same races in the same order, same stats to the last counter
//     (SampledAccesses itself excepted, it is the one new observation).
//  2. Rate < 1 reports a *subset* of the full run's racy addresses,
//     never a superset: unsampled accesses still install their shadow
//     state, so sampling misses races but cannot invent them. With an
//     unlimited budget the admitted set is a pure hash of
//     (seed, addr, generation), so the sampled report is additionally
//     identical across every Consumers configuration; a
//     finite budget lets the schedule pick which accesses win a page's
//     coupons, so the budget arm checks only the subset property.

// racyAddrs collects the distinct racy addresses of a report. Races are
// deduplicated per address, so the address set is the right granularity
// for the subset comparison: once the full run reports the first race at
// an address, the two runs' shadow states at that address may diverge
// (the full run stops appending racy readers) and the *racer pair* a
// later sampled race names may legitimately differ.
func racyAddrs(rep *detect.Report) map[uint64]bool {
	set := make(map[uint64]bool, len(rep.Races))
	for _, r := range rep.Races {
		set[r.Addr] = true
	}
	return set
}

// samplingIdentityOne pins promise 1 on one generated program: the rate-1.0
// run deep-equals the full run, stats included.
func samplingIdentityOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	full := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	smp := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
		Sampling: detect.Sampling{Rate: 1.0, Seed: 0x5eed},
	}).Run(p.Run)
	if full.Err != nil || smp.Err != nil {
		t.Fatalf("seed %d: full err %v, sampled err %v\n%s", seed, full.Err, smp.Err, p)
	}
	if len(full.Races) != len(smp.Races) {
		t.Fatalf("seed %d: rate 1.0 found %d races, full %d\n%s",
			seed, len(smp.Races), len(full.Races), p)
	}
	for i := range full.Races {
		if full.Races[i] != smp.Races[i] {
			t.Fatalf("seed %d: race %d differs: sampled %v, full %v\n%s",
				seed, i, smp.Races[i], full.Races[i], p)
		}
	}
	fs, ts := full.Stats, smp.Stats
	if ts.Shadow.SampledAccesses == 0 && (ts.Shadow.Reads+ts.Shadow.Writes) > 0 &&
		ts.Reach.Queries > 0 {
		t.Fatalf("seed %d: rate 1.0 run made queries but sampled nothing\n%s", seed, p)
	}
	if ts.Shadow.SkippedByBudget != 0 {
		t.Fatalf("seed %d: unlimited budget skipped %d accesses\n%s",
			seed, ts.Shadow.SkippedByBudget, p)
	}
	ts.Shadow.SampledAccesses = 0
	if fs != ts {
		t.Fatalf("seed %d: stats diverge beyond SampledAccesses\nfull    %+v\nsampled %+v\n%s",
			seed, fs, ts, p)
	}
}

// samplingSubsetOne pins promise 2 on one generated program, across
// Consumers ∈ {0,1}: every sampled run's racy addresses ⊆ the full
// run's, rate-1.0 runs are race-identical, and fractional-rate runs with
// an unlimited budget are identical to each other across configurations.
// Returns (full racy addresses, missed addresses) so sweeps can assert
// the arm is not vacuous.
func samplingSubsetOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) (races, missed int) {
	t.Helper()
	p := Generate(seed, opts)
	full := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	if full.Err != nil {
		t.Fatalf("seed %d: full err %v\n%s", seed, full.Err, p)
	}
	fullAddrs := racyAddrs(full)

	for _, rate := range []float64{1.0, 0.5, 0.2} {
		var ref *detect.Report // serial sampled run at this rate
		for _, consumers := range []int{0, 1} {
			rep := detect.NewEngine(detect.Config{
				Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
				Consumers: consumers,
				Sampling:  detect.Sampling{Rate: rate, Seed: 0x5eed},
			}).Run(p.Run)
			if rep.Err != nil {
				t.Fatalf("seed %d [rate=%v c=%d]: %v\n%s",
					seed, rate, consumers, rep.Err, p)
			}
			for a := range racyAddrs(rep) {
				if !fullAddrs[a] {
					t.Fatalf("seed %d [rate=%v c=%d]: false positive at %d — "+
						"sampled run reports a race full detection does not\n%s",
						seed, rate, consumers, a, p)
				}
			}
			if rate == 1.0 && len(rep.Races) != len(full.Races) {
				t.Fatalf("seed %d [c=%d]: rate 1.0 found %d races, full %d\n%s",
					seed, consumers, len(rep.Races), len(full.Races), p)
			}
			// Unlimited budget: the admitted set is configuration-
			// independent, so every config reproduces the serial
			// sampled report exactly.
			if ref == nil {
				ref = rep
				continue
			}
			if len(ref.Races) != len(rep.Races) {
				t.Fatalf("seed %d [rate=%v c=%d]: %d races vs serial sampled %d\n%s",
					seed, rate, consumers, len(rep.Races), len(ref.Races), p)
			}
			for i := range ref.Races {
				if ref.Races[i] != rep.Races[i] {
					t.Fatalf("seed %d [rate=%v c=%d]: race %d differs: %v vs %v\n%s",
						seed, rate, consumers, i, rep.Races[i], ref.Races[i], p)
				}
			}
		}
		if rate < 1 {
			missed += len(fullAddrs) - len(racyAddrs(ref))
		}
	}

	// Budget arm: a one-coupon page budget keeps only the subset property
	// against full detection, and one checker sees every access in seal
	// order in either pipeline, so the budgeted runs match each other.
	var budgeted *detect.Report
	for _, consumers := range []int{0, 1} {
		rep := detect.NewEngine(detect.Config{
			Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
			Consumers: consumers,
			Sampling:  detect.Sampling{Rate: 1.0, Budget: 1, Seed: 0x5eed},
		}).Run(p.Run)
		if rep.Err != nil {
			t.Fatalf("seed %d [budget c=%d]: %v\n%s", seed, consumers, rep.Err, p)
		}
		for a := range racyAddrs(rep) {
			if !fullAddrs[a] {
				t.Fatalf("seed %d [budget c=%d]: false positive at %d\n%s",
					seed, consumers, a, p)
			}
		}
		if budgeted != nil && !reflect.DeepEqual(budgeted, rep) {
			t.Fatalf("seed %d: budgeted async run diverges from inline\ninline %+v\nasync  %+v\n%s",
				seed, budgeted, rep, p)
		}
		budgeted = rep
	}
	return len(fullAddrs), missed
}

// samplingShapes maps each algorithm to a program dialect it is sound
// for, so "subset of the full run" is meaningful on all four back-ends.
var samplingShapes = []struct {
	mode detect.Mode
	opts Options
}{
	{detect.ModeSPBags, Options{Dialect: PureSP, MaxStmts: 60}},
	{detect.ModeMultiBags, Options{Dialect: Structured, MaxStmts: 60}},
	{detect.ModeMultiBagsPlus, Options{Dialect: General, MaxStmts: 60}},
	{detect.ModeVectorClocks, Options{Dialect: General, MaxStmts: 60}},
}

// FuzzSamplingNeverFalsePositive is the sampling soundness arm: for any
// seed, on all four algorithms and every Consumers
// configuration, a sampled run must never report a race full detection
// does not (and rate 1.0 must reproduce full detection exactly).
func FuzzSamplingNeverFalsePositive(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 0xabcdef} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, sh := range samplingShapes {
			samplingSubsetOne(t, seed, sh.opts, sh.mode)
			samplingIdentityOne(t, seed, sh.opts, sh.mode)
		}
	})
}

// TestSamplingRateOneIdentical sweeps the identity differential so plain
// `go test` covers it on all four algorithms, plus the construct-dense
// read-heavy shape where the epoch tiers interleave with the sampler.
func TestSamplingRateOneIdentical(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for _, sh := range samplingShapes {
			samplingIdentityOne(t, seed, sh.opts, sh.mode)
		}
		samplingIdentityOne(t, seed,
			Options{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true, ConstructDense: true},
			detect.ModeMultiBagsPlus)
	}
}

// TestSamplingSubsetSeeds sweeps the subset differential without the
// fuzzer and asserts the sweep is not vacuous: the full runs race
// somewhere, and the fractional rates actually miss races somewhere —
// otherwise the subset check proves nothing.
func TestSamplingSubsetSeeds(t *testing.T) {
	var races, missed int
	for seed := uint64(0); seed < 12; seed++ {
		for _, sh := range samplingShapes {
			r, m := samplingSubsetOne(t, seed, sh.opts, sh.mode)
			races += r
			missed += m
		}
	}
	if races == 0 {
		t.Fatal("sampling sweep saw no racy programs; differential is vacuous")
	}
	if missed == 0 {
		t.Fatal("fractional rates never missed a race; sampling is not sampling")
	}
}
