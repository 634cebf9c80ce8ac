package progen

import (
	"reflect"
	"testing"

	"futurerd/internal/detect"
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

// parallelOne asserts that the async consumer reproduces the inline
// engine's whole report exactly on one generated program, violations and
// error included: the engine runs ahead of detection, handing each
// construct's mutations to the consumer with the batch that follows it.
func parallelOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	cfg := detect.Config{Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20}
	serial := detect.NewEngine(cfg).Run(p.Run)
	cfg.Consumers = 1
	async := detect.NewEngine(cfg).Run(p.Run)
	if !reflect.DeepEqual(serial, async) {
		t.Fatalf("seed %d: async run diverges from inline\ninline %+v\nasync  %+v\n%s",
			seed, serial, async, p)
	}
}

// consumersOne asserts pipeline equivalence on one generated program:
// the async consumer (Consumers 1) must reproduce the inline engine's
// report exactly — same races in the same order, same protocol counters,
// same memo, page-cache and fast-path hits, same reachability traffic,
// same batch stats.
func consumersOne(t *testing.T, seed uint64, opts Options, mode detect.Mode) {
	t.Helper()
	p := Generate(seed, opts)
	cfg := detect.Config{Mode: mode, Mem: detect.MemFull, MaxRaces: 1 << 20}
	serial := detect.NewEngine(cfg).Run(p.Run)
	if serial.Err != nil {
		t.Fatalf("seed %d: serial err %v\n%s", seed, serial.Err, p)
	}
	cfg.Consumers = 1
	rep := detect.NewEngine(cfg).Run(p.Run)
	if rep.Err != nil {
		t.Fatalf("seed %d [async]: %v\n%s", seed, rep.Err, p)
	}
	if !reflect.DeepEqual(serial.Races, rep.Races) {
		t.Fatalf("seed %d [async]: races diverge\nserial %v\ngot    %v\n%s", seed, serial.Races, rep.Races, p)
	}
	if serial.Stats != rep.Stats {
		t.Fatalf("seed %d [async]: stats diverge\nserial %+v\ngot    %+v\n%s",
			seed, serial.Stats, rep.Stats, p)
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

// vcOne is the vector-clock differential on one generated program: the
// vc back-end must be verdict- and race-order-identical to MultiBags+ —
// same races in the same order, same shadow protocol counters, same query
// count — while resolving every
// query as a clock comparison: ClockCompares > 0 and every bag-probe
// counter exactly zero.
func vcOne(t *testing.T, seed uint64, opts Options) {
	t.Helper()
	p := Generate(seed, opts)
	mbp := detect.NewEngine(detect.Config{
		Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	vc := detect.NewEngine(detect.Config{
		Mode: detect.ModeVectorClocks, Mem: detect.MemFull, MaxRaces: 1 << 20,
	}).Run(p.Run)
	if mbp.Err != nil || vc.Err != nil {
		t.Fatalf("seed %d: multibags+ err %v, vc err %v\n%s", seed, mbp.Err, vc.Err, p)
	}
	if len(mbp.Races) != len(vc.Races) || mbp.Stats.RaceCount != vc.Stats.RaceCount {
		t.Fatalf("seed %d: vc found %d races (%d observations), multibags+ %d (%d)\n%s",
			seed, len(vc.Races), vc.Stats.RaceCount,
			len(mbp.Races), mbp.Stats.RaceCount, p)
	}
	for i := range mbp.Races {
		if mbp.Races[i] != vc.Races[i] {
			t.Fatalf("seed %d: race %d differs: vc %v, multibags+ %v\n%s",
				seed, i, vc.Races[i], mbp.Races[i], p)
		}
	}
	if mbp.Stats.Shadow != vc.Stats.Shadow {
		t.Fatalf("seed %d: shadow counters diverge\nmultibags+ %+v\nvc         %+v\n%s",
			seed, mbp.Stats.Shadow, vc.Stats.Shadow, p)
	}
	mr, vr := mbp.Stats.Reach, vc.Stats.Reach
	if mr.Queries != vr.Queries {
		t.Fatalf("seed %d: vc made %d queries, multibags+ %d\n%s",
			seed, vr.Queries, mr.Queries, p)
	}
	if vr.Finds != 0 || vr.Unions != 0 || vr.AttachedSets != 0 ||
		vr.RArcs != 0 || vr.RCloseWords != 0 {
		t.Fatalf("seed %d: vc run took bag probes: %+v\n%s", seed, vr, p)
	}
	if vr.Queries > 0 && vr.ClockCompares == 0 {
		t.Fatalf("seed %d: vc answered %d queries with 0 clock compares\n%s",
			seed, vr.Queries, p)
	}
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
		detect.ModeVectorClocks,
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
		fuzzOne(t, seed, opts, detect.ModeVectorClocks)
		vcOne(t, seed, opts)
		parallelOne(t, seed, opts, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, opts, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, opts, detect.ModeVectorClocks)
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
		fuzzOne(t, seed, opts, detect.ModeVectorClocks)
		parallelOne(t, seed, opts, detect.ModeMultiBags)
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
		fuzzOne(t, seed, gen, detect.ModeVectorClocks)
		fuzzOne(t, seed, str, detect.ModeMultiBags)
		vcOne(t, seed, gen)
		parallelOne(t, seed, gen, detect.ModeMultiBagsPlus)
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
		fuzzOne(t, seed, dense, detect.ModeVectorClocks)
		fuzzOne(t, seed, denseStr, detect.ModeMultiBags)
		vcOne(t, seed, dense)
		epochOne(t, seed, dense, detect.ModeMultiBagsPlus)
		epochOne(t, seed, dense, detect.ModeVectorClocks)
		epochOne(t, seed, denseStr, detect.ModeMultiBags)
		replayOne(t, seed, dense)
	})
}

// TestParallelMatchesSerialSeeds sweeps the parallel differential over a
// seed range so plain `go test` (and `go test -race`) covers many
// programs without the fuzzer.
func TestParallelMatchesSerialSeeds(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		parallelOne(t, seed, Options{Dialect: General, MaxStmts: 60}, detect.ModeMultiBagsPlus)
		parallelOne(t, seed, Options{Dialect: Structured, MaxStmts: 60}, detect.ModeMultiBags)
	}
}

// TestConsumersMatchSerialSeeds sweeps the pipeline differential
// (Consumers ∈ {0,1}) over a seed range, in both the default shape —
// every access on shadow page zero — and the PageSpread shape, where each
// body touches its own pages.
func TestConsumersMatchSerialSeeds(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		consumersOne(t, seed, Options{Dialect: General, MaxStmts: 60}, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, Options{Dialect: Structured, MaxStmts: 60}, detect.ModeMultiBags)
		consumersOne(t, seed, Options{Dialect: General, MaxStmts: 60, PageSpread: true}, detect.ModeMultiBagsPlus)
		consumersOne(t, seed, Options{Dialect: Structured, MaxStmts: 60, PageSpread: true}, detect.ModeMultiBags)
	}
}

// TestConsumersSeedShapes pins the two program shapes the sweep relies
// on: default programs keep every access on shadow page zero, while a
// PageSpread sweep spreads bodies over several pages — otherwise the
// differential above would exercise a single page only.
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
	if spread < 2 {
		t.Fatal("PageSpread sweep never touched more than one shadow page")
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
		parallelOne(t, seed, opts, detect.ModeMultiBagsPlus)
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
		add(epochOne(t, seed, gen, detect.ModeVectorClocks))
		add(epochOne(t, seed, str, detect.ModeMultiBags))
	}
	if inflations == 0 || skips == 0 {
		t.Fatalf("construct-dense sweep took %d reader-list inflations and %d read-shared skips, want both > 0",
			inflations, skips)
	}
}

// TestVectorClockEquivalence is the vector-clock back-end's acceptance
// sweep: across Consumers ∈ {0,1} and all three progen
// shapes (general, structured, construct-dense read-heavy), vc must
// deep-equal MultiBags+ on races (content and order), violations and the
// verdict counters — while taking clock compares and exactly zero bag
// probes. The serial vcOne differential runs first so a divergence
// blames the algorithm before the pipeline.
func TestVectorClockEquivalence(t *testing.T) {
	shapes := []Options{
		{Dialect: General, MaxStmts: 60},
		{Dialect: Structured, MaxStmts: 60},
		{Dialect: General, MaxStmts: 60, Locs: 5, ReadHeavy: true, ConstructDense: true},
	}
	var compares uint64
	for seed := uint64(0); seed < 21; seed++ {
		for _, opts := range shapes {
			vcOne(t, seed, opts)
			p := Generate(seed, opts)
			for _, consumers := range []int{0, 1} {
				mbp := detect.NewEngine(detect.Config{
					Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, MaxRaces: 1 << 20,
					Consumers: consumers,
				}).Run(p.Run)
				vc := detect.NewEngine(detect.Config{
					Mode: detect.ModeVectorClocks, Mem: detect.MemFull, MaxRaces: 1 << 20,
					Consumers: consumers,
				}).Run(p.Run)
				if mbp.Err != nil || vc.Err != nil {
					t.Fatalf("seed %d [c=%d]: multibags+ err %v, vc err %v\n%s",
						seed, consumers, mbp.Err, vc.Err, p)
				}
				if len(mbp.Races) != len(vc.Races) {
					t.Fatalf("seed %d [c=%d]: vc %d races, multibags+ %d\n%s",
						seed, consumers, len(vc.Races), len(mbp.Races), p)
				}
				for i := range mbp.Races {
					if mbp.Races[i] != vc.Races[i] {
						t.Fatalf("seed %d [c=%d]: race %d differs: vc %v, multibags+ %v\n%s",
							seed, consumers, i, vc.Races[i], mbp.Races[i], p)
					}
				}
				if len(mbp.Violations) != len(vc.Violations) {
					t.Fatalf("seed %d [c=%d]: vc %d violations, multibags+ %d\n%s",
						seed, consumers, len(vc.Violations), len(mbp.Violations), p)
				}
				for i := range mbp.Violations {
					if mbp.Violations[i] != vc.Violations[i] {
						t.Fatalf("seed %d [c=%d]: violation %d differs: vc %v, multibags+ %v\n%s",
							seed, consumers, i, vc.Violations[i], mbp.Violations[i], p)
					}
				}
				ms, vs := mbp.Stats.Shadow, vc.Stats.Shadow
				if mbp.Stats.RaceCount != vc.Stats.RaceCount ||
					ms.Reads != vs.Reads || ms.Writes != vs.Writes ||
					ms.OwnedSkips != vs.OwnedSkips || ms.ReadSharedSkips != vs.ReadSharedSkips ||
					ms.ReaderAppends != vs.ReaderAppends || ms.ReaderFlushes != vs.ReaderFlushes {
					t.Fatalf("seed %d [c=%d]: verdict counters diverge\nmultibags+ %+v\nvc         %+v\n%s",
						seed, consumers, ms, vs, p)
				}
				vr := vc.Stats.Reach
				if vr.Finds != 0 || vr.Unions != 0 || vr.AttachedSets != 0 ||
					vr.RArcs != 0 || vr.RCloseWords != 0 {
					t.Fatalf("seed %d [c=%d]: vc run took bag probes: %+v\n%s",
						seed, consumers, vr, p)
				}
				compares += vr.ClockCompares
			}
		}
	}
	if compares == 0 {
		t.Fatal("vector-clock sweep never made a clock comparison")
	}
}
