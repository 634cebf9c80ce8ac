package progen

import (
	"reflect"
	"testing"

	"futurerd/internal/detect"
	"futurerd/internal/shadow"
	"futurerd/internal/trace"
)

// Native fuzz targets: any seed must produce a program on which the
// algorithms agree with the brute-force oracle on every query and every
// race. Run continuously with
//
//	go test -fuzz FuzzGeneralPrograms ./internal/progen
//
// Without -fuzz the seed corpus below runs as regular tests.

func fuzzOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	rep := detect.NewEngine(detect.Config{
		Mode:   mode,
		Mem:    detect.MemFull,
		Verify: true,
	}).Run(p.Run)
	if rep.Err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, rep.Err, p)
	}
	for _, v := range rep.Violations {
		t.Fatalf("seed %d: %s: %s\n%s", seed, v.Kind, v.Detail, p)
	}
}

// consumersOne asserts pipeline equivalence on one generated program:
// the async consumer (Consumers 1) runs ahead of detection, taking each
// construct's mutations with the batch that follows it, and must still
// reproduce the inline engine's whole report exactly — same races in the
// same order, same violations, same protocol counters, same memo,
// page-cache and fast-path hits, same reachability traffic, same batch
// stats. Both runs must succeed.
func consumersOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	cfg := detect.Config{Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20}
	serial := detect.NewEngine(cfg).Run(p.Run)
	if serial.Err != nil {
		t.Fatalf("seed %d: serial err %v\n%s", seed, serial.Err, p)
	}
	cfg.Consumers = 1
	async := detect.NewEngine(cfg).Run(p.Run)
	if async.Err != nil {
		t.Fatalf("seed %d [async]: %v\n%s", seed, async.Err, p)
	}
	if !reflect.DeepEqual(serial, async) {
		t.Fatalf("seed %d: async run diverges from inline\ninline %+v\nasync  %+v\n%s",
			seed, serial, async, p)
	}
}

// epochOne is the cross-generation read-shared differential on one
// generated program. The reference run sets Verify: the engine wraps the
// algorithm for oracle cross-checking, which audits every verdict. The
// plain runs (Consumers ∈ {0,1}) must then reproduce that reference
// report exactly — same races in the same order, same verdict counters.
// It returns the reader-list inflations and read-shared skips the plain
// runs took.
func epochOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) (inflations, skips uint64) {
	t.Helper()
	p := Generate(seed, opts)
	ref := detect.NewEngine(detect.Config{
		Mode: mode, Mem: detect.MemFull, Verify: true, MaxRaces: 1 << 20,
	}).Run(p.Run)
	if ref.Err != nil {
		t.Fatalf("seed %d: reference err %v\n%s", seed, ref.Err, p)
	}
	for _, v := range ref.Violations {
		t.Fatalf("seed %d: %s: %s\n%s", seed, v.Kind, v.Detail, p)
	}
	for _, consumers := range []int{0, 1} {
		rep := detect.NewEngine(detect.Config{
			Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20,
			Consumers: consumers,
		}).Run(p.Run)
		if rep.Err != nil {
			t.Fatalf("seed %d [c=%d]: %v\n%s", seed, consumers, rep.Err, p)
		}
		if len(ref.Races) != len(rep.Races) {
			t.Fatalf("seed %d [c=%d]: plain run found %d races, reference %d\n%s",
				seed, consumers, len(rep.Races), len(ref.Races), p)
		}
		for i := range ref.Races {
			if ref.Races[i] != rep.Races[i] {
				t.Fatalf("seed %d [c=%d]: race %d differs: plain %v, reference %v\n%s",
					seed, consumers, i, rep.Races[i], ref.Races[i], p)
			}
		}
		rs, es := ref.Stats.Shadow, rep.Stats.Shadow
		if ref.Stats.RaceCount != rep.Stats.RaceCount ||
			rs.Reads != es.Reads || rs.Writes != es.Writes ||
			rs.OwnedSkips != es.OwnedSkips || rs.ReadSharedSkips != es.ReadSharedSkips ||
			rs.ReaderAppends != es.ReaderAppends || rs.ReaderFlushes != es.ReaderFlushes {
			t.Fatalf("seed %d [c=%d]: verdict counters diverge\nreference %+v\nplain     %+v\n%s",
				seed, consumers, rs, es, p)
		}
		inflations += es.EpochInflations
		skips += es.ReadSharedSkips
	}
	return inflations, skips
}

// replayOne asserts the record→replay→detect equivalence on one
// generated program: recording its trace and replaying it must reproduce
// the direct run's report — same races in the same order, same structure
// and shadow traffic — under every algorithm and pipeline.
func replayOne(t *testing.T, seed uint64, opts Options) {
	t.Helper()
	p := Generate(seed, opts)
	raw, err := trace.RecordBytes(p.Run)
	if err != nil {
		t.Fatalf("seed %d: record: %v", seed, err)
	}
	for _, mode := range []detect.Mode{
		detect.ModeSPBags, detect.ModeMultiBags, detect.ModeMultiBagsPlus,
	} {
		for _, consumers := range []int{0, 1} {
			cfg := detect.Config{
				Mode: mode, Mem: detect.MemFull,
				Consumers: consumers, MaxRaces: 1 << 20,
			}
			direct := detect.NewEngine(cfg).Run(p.Run)
			replayed, err := trace.ReplayBytes(raw, cfg)
			if err != nil {
				t.Fatalf("seed %d [%s c=%d]: replay: %v\n%s", seed, mode, consumers, err, p)
			}
			if (direct.Err == nil) != (replayed.Err == nil) {
				t.Fatalf("seed %d [%s c=%d]: errs diverge: %v vs %v\n%s",
					seed, mode, consumers, direct.Err, replayed.Err, p)
			}
			if direct.Stats.RaceCount != replayed.Stats.RaceCount ||
				len(direct.Races) != len(replayed.Races) {
				t.Fatalf("seed %d [%s c=%d]: direct %d/%d vs replay %d/%d races\n%s",
					seed, mode, consumers,
					len(direct.Races), direct.Stats.RaceCount,
					len(replayed.Races), replayed.Stats.RaceCount, p)
			}
			for i := range direct.Races {
				if direct.Races[i] != replayed.Races[i] {
					t.Fatalf("seed %d [%s c=%d]: race %d differs: %v vs %v\n%s",
						seed, mode, consumers, i, direct.Races[i], replayed.Races[i], p)
				}
			}
			if direct.Stats.Strands != replayed.Stats.Strands ||
				direct.Stats.Spawns != replayed.Stats.Spawns ||
				direct.Stats.Creates != replayed.Stats.Creates ||
				direct.Stats.Gets != replayed.Stats.Gets ||
				direct.Stats.Syncs != replayed.Stats.Syncs {
				t.Fatalf("seed %d [%s c=%d]: structure diverges:\ndirect %+v\nreplay %+v\n%s",
					seed, mode, consumers, direct.Stats, replayed.Stats, p)
			}
			ss, rs := direct.Stats.Shadow, replayed.Stats.Shadow
			if ss.Reads != rs.Reads || ss.Writes != rs.Writes ||
				ss.OwnedSkips != rs.OwnedSkips || ss.ReadSharedSkips != rs.ReadSharedSkips ||
				ss.ReaderAppends != rs.ReaderAppends ||
				ss.ReaderFlushes != rs.ReaderFlushes {
				t.Fatalf("seed %d [%s c=%d]: shadow counters diverge\ndirect %+v\nreplay %+v\n%s",
					seed, mode, consumers, ss, rs, p)
			}
		}
	}
}

func FuzzGeneralPrograms(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 1 << 20, 0xdeadbeef} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		opts := Options{Dialect: General, MaxStmts: 60}
		fuzzOne(t, seed, opts, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, opts, detect.ModeMultiBagsPlus)
		spread := opts
		spread.PageSpread = true
		fuzzOne(t, seed, spread, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, spread, detect.ModeMultiBagsPlus)
		replayOne(t, seed, opts)
	})
}

func FuzzStructuredPrograms(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 99999} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		opts := Options{Dialect: Structured, MaxStmts: 60}
		fuzzOne(t, seed, opts, detect.ModeMultiBags)
		fuzzOne(t, seed, opts, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, opts, detect.ModeMultiBags)
		spread := opts
		spread.PageSpread = true
		fuzzOne(t, seed, spread, detect.ModeMultiBags)
		consumersOne(t, seed, spread, detect.ModeMultiBags)
		replayOne(t, seed, opts)
	})
}

// FuzzReadSharedPrograms is the read-shared-heavy differential arm: the
// access mix is mostly bulk reads over a handful of locations, so
// reader lists stack up, strands re-read ranges other strands have read,
// and the read-shared skips carry real weight. Any seed must agree with
// the oracle on every verdict and with the serial engine on every
// counter the protocol defines — if a reader-list entry ever masked a
// race or mis-skipped, this arm is built to find it.
func FuzzReadSharedPrograms(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 4096, 0xfeedbeef} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		gen := Options{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true}
		str := Options{Dialect: Structured, MaxStmts: 60, Locs: 5, ReadHeavy: true}
		fuzzOne(t, seed, gen, detect.ModeMultiBagsPlus)
		fuzzOne(t, seed, str, detect.ModeMultiBags)
		consumersOne(t, seed, gen, detect.ModeMultiBagsPlus)
		replayOne(t, seed, gen)
		// Cross-generation arm: construct-dense read-heavy programs bump
		// the generation every few statements, so recorded read verdicts
		// must carry across construct windows without ever changing a
		// verdict vs the oracle-audited reference protocol.
		dense := gen
		dense.ConstructDense = true
		denseStr := str
		denseStr.ConstructDense = true
		fuzzOne(t, seed, dense, detect.ModeMultiBagsPlus)
		fuzzOne(t, seed, denseStr, detect.ModeMultiBags)
		epochOne(t, seed, dense, detect.ModeMultiBagsPlus)
		epochOne(t, seed, denseStr, detect.ModeMultiBags)
		replayOne(t, seed, dense)
	})
}

// TestParallelMatchesSerialSeeds sweeps the pipeline differential
// (Consumers ∈ {0,1}) over seeds 0–39 in the default shape — every
// access on shadow page zero — so plain `go test` (and `go test -race`)
// covers many programs without the fuzzer.
func TestParallelMatchesSerialSeeds(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		consumersOne(t, seed, Options{Dialect: General, MaxStmts: 60}, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, Options{Dialect: Structured, MaxStmts: 60}, detect.ModeMultiBags)
	}
}

// TestConsumersMatchSerialSeeds sweeps the same differential over seeds
// 0–24 in the PageSpread shape, where each body touches its own pages.
func TestConsumersMatchSerialSeeds(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		consumersOne(t, seed, Options{Dialect: General, MaxStmts: 60, PageSpread: true}, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, Options{Dialect: Structured, MaxStmts: 60, PageSpread: true}, detect.ModeMultiBags)
	}
}

// TestConsumersSeedShapes pins the two program shapes the sweep relies
// on: default programs keep every access on shadow page zero, while a
// PageSpread sweep spreads bodies over more pages than the checker's
// page-set cache holds — otherwise the differential above would never
// evict a slot.
func TestConsumersSeedShapes(t *testing.T) {
	pages := func(opts Options, mode detect.Mode, seed uint64) uint64 {
		p := Generate(seed, opts)
		rep := detect.NewEngine(detect.Config{Mode: mode, Mem: detect.MemFull,
			MaxRaces: 1 << 20}).Run(p.Run)
		if rep.Err != nil {
			t.Fatalf("seed %d: %v", seed, rep.Err)
		}
		return rep.Stats.Shadow.TouchedPages
	}
	if got := pages(Options{Dialect: Structured, MaxStmts: 60}, detect.ModeMultiBags, 3); got > 1 {
		t.Fatalf("default-shape program touched %d shadow pages, want at most 1 (single shared page)", got)
	}
	var spread uint64
	for seed := uint64(0); seed < 25; seed++ {
		spread = max(spread, pages(Options{Dialect: General, MaxStmts: 60, PageSpread: true}, detect.ModeMultiBagsPlus, seed))
	}
	if spread <= shadow.PageSetSlots {
		t.Fatalf("PageSpread sweep touched at most %d shadow pages, want more than the %d page-set slots",
			spread, shadow.PageSetSlots)
	}
}

// TestReplayMatchesDirectSeeds sweeps the record→replay→detect
// differential (every algorithm, Consumers ∈ {0,1}) the same way.
func TestReplayMatchesDirectSeeds(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		replayOne(t, seed, Options{Dialect: General, MaxStmts: 60})
		replayOne(t, seed, Options{Dialect: Structured, MaxStmts: 60})
	}
}

// TestReadSharedHeavySeeds sweeps the read-shared-heavy arm without the
// fuzzer, and checks the mix actually exercises the fast path.
func TestReadSharedHeavySeeds(t *testing.T) {
	opts := Options{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true}
	var skips uint64
	for seed := uint64(0); seed < 30; seed++ {
		fuzzOne(t, seed, opts, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, opts, detect.ModeMultiBagsPlus)
		p := Generate(seed, opts)
		rep := detect.NewEngine(detect.Config{
			Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
		}).Run(p.Run)
		skips += rep.Stats.Shadow.ReadSharedSkips
	}
	if skips == 0 {
		t.Fatal("read-heavy sweep never hit the read-shared fast path")
	}
}

// TestEpochCrossGenSeeds sweeps the cross-generation differential
// without the fuzzer — construct-dense read-heavy programs under
// Consumers ∈ {0,1} against the oracle-audited reference — and checks
// the sweep actually inflates reader lists and takes read-shared skips,
// so the differential proves something about reads recorded across
// construct generations rather than vacuously passing with the lists
// cold. (The skip of a strand recorded in an inflated list is pinned
// exactly by TestReadSharedStampPerStrand and
// TestEpochConsumersEquivalence.)
func TestEpochCrossGenSeeds(t *testing.T) {
	gen := Options{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true, ConstructDense: true}
	str := Options{Dialect: Structured, MaxStmts: 60, Locs: 5, ReadHeavy: true, ConstructDense: true}
	var inflations, skips uint64
	add := func(i, s uint64) { inflations, skips = inflations+i, skips+s }
	for seed := uint64(0); seed < 25; seed++ {
		add(epochOne(t, seed, gen, detect.ModeMultiBagsPlus))
		add(epochOne(t, seed, str, detect.ModeMultiBags))
	}
	if inflations == 0 || skips == 0 {
		t.Fatalf("construct-dense sweep took %d reader-list inflations and %d read-shared skips, want both > 0",
			inflations, skips)
	}
}
