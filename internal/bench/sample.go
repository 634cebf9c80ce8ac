package bench

import (
	"fmt"
	"math"
	"time"

	"futurerd"
	"futurerd/internal/workloads"
)

// samplingSeed fixes the admission hash for the sample table so the
// admitted set — and therefore the measured miss rate — is reproducible
// across runs and machines.
const samplingSeed = 0x5eed

// sampleRates are the fractional admission rates the table sweeps. Rate
// 1.0 is included as the identity check: it must find exactly the full
// run's races and its (serial) counters are gated by futurerd-benchtrend.
var sampleRates = []float64{1.0, 0.5, 0.25, 0.10}

// racyAddrSet collects the distinct racy addresses of a report — the
// granularity of the sampling soundness contract: a sampled run may miss
// racy addresses but must never report one the full run does not.
func racyAddrSet(rep *futurerd.Report) map[uint64]bool {
	set := make(map[uint64]bool, len(rep.Races))
	for _, r := range rep.Races {
		set[r.Addr] = true
	}
	return set
}

// FigSample measures the always-on sampling front-end on ground-truth
// races: every workload runs with its deliberate race injected, once
// under full detection and once per admission rate (plus one per-page
// budget row), and the table reports the measured miss rate against the
// full run's racy addresses next to the fraction of slow-path accesses
// that actually paid protocol cost. A sampled run reporting a race the
// full run does not is a soundness violation and fails the harness.
func FigSample(opts Options) (*Table, []Measurement, error) {
	opts.defaults()
	t := &Table{
		Title:  "Sampling: budget-bounded detection on injected races (miss rate vs admission rate)",
		Header: []string{"bench", "config", "seconds", "", "racy addrs", "miss", "sampled", "budget-skip"},
	}
	run := func(ins workloads.Instance, smp futurerd.Sampling) (time.Duration, *futurerd.Report, error) {
		best := time.Duration(math.MaxInt64)
		var rep *futurerd.Report
		for i := 0; i < opts.Iters; i++ {
			start := time.Now()
			r := futurerd.Detect(futurerd.Config{
				Mode: futurerd.ModeMultiBagsPlus, Mem: futurerd.MemFull,
				Consumers: opts.Consumers,
				MaxRaces:  1 << 20, Sampling: smp,
			}, ins.Run)
			d := time.Since(start)
			if r.Err != nil {
				return 0, nil, fmt.Errorf("%s: %v", ins.Name(), r.Err)
			}
			if d < best {
				best, rep = d, r
			}
		}
		return best, rep, nil
	}
	var ms []Measurement
	for _, b := range workloads.Racy(opts.Size) {
		// One instance serves every config of this benchmark: the shadow
		// addresses are the instance's real buffer addresses, so the
		// cross-config racy-address comparison is only meaningful against
		// the same allocation.
		ins := b.Structured()
		full, fullRep, err := run(ins, futurerd.Sampling{})
		if err != nil {
			return nil, nil, err
		}
		fullAddrs := racyAddrSet(fullRep)
		if len(fullAddrs) == 0 {
			return nil, nil, fmt.Errorf("%s: injected race not detected by the full run", b.Name)
		}
		t.Rows = append(t.Rows, []string{
			b.Name, "full", secs(full), "",
			fmt.Sprintf("%d", len(fullAddrs)), "-", "-", "-",
		})
		ms = append(ms, Measurement{
			Figure: "sample", Bench: b.Name, Config: "full",
			Seconds: full.Seconds(), Stats: &fullRep.Stats,
		})

		configs := make([]futurerd.Sampling, 0, len(sampleRates)+1)
		for _, r := range sampleRates {
			configs = append(configs, futurerd.Sampling{Rate: r, Seed: samplingSeed})
		}
		configs = append(configs, futurerd.Sampling{Rate: 1.0, Budget: 1, Seed: samplingSeed})
		for _, smp := range configs {
			name := fmt.Sprintf("rate%.2f", smp.Rate)
			if smp.Budget > 0 {
				name = fmt.Sprintf("budget%d", smp.Budget)
			}
			d, rep, err := run(ins, smp)
			if err != nil {
				return nil, nil, err
			}
			addrs := racyAddrSet(rep)
			for a := range addrs {
				if !fullAddrs[a] {
					return nil, nil, fmt.Errorf(
						"%s [%s]: soundness violation: sampled run reports a race at %#x "+
							"that full detection does not", b.Name, name, a)
				}
			}
			if smp.Rate == 1.0 && smp.Budget == 0 && len(addrs) != len(fullAddrs) {
				return nil, nil, fmt.Errorf(
					"%s: rate 1.0 found %d racy addrs, full detection %d; must be identical",
					b.Name, len(addrs), len(fullAddrs))
			}
			sh := rep.Stats.Shadow
			miss := 100 * float64(len(fullAddrs)-len(addrs)) / float64(len(fullAddrs))
			sampled := "-"
			if total := sh.Reads + sh.Writes; total > 0 {
				sampled = fmt.Sprintf("%.1f%%", 100*float64(sh.SampledAccesses)/float64(total))
			}
			t.Rows = append(t.Rows, []string{
				b.Name, name, secs(d), ratio(d, full),
				fmt.Sprintf("%d", len(addrs)),
				fmt.Sprintf("%.0f%%", miss),
				sampled,
				fmt.Sprintf("%d", sh.SkippedByBudget),
			})
			m := Measurement{
				Figure: "sample", Bench: b.Name, Config: name,
				Seconds: d.Seconds(), Overhead: float64(d) / float64(full),
			}
			// Only the rate-1.0 unlimited-budget row carries counters into
			// the JSON document: it is counter-identical to full detection
			// by contract (SampledAccesses excepted), so benchtrend gating
			// it pins the contract per commit. Fractional rates and budget
			// rows are timed only.
			if smp.Rate == 1.0 && smp.Budget == 0 {
				m.Stats = &rep.Stats
			}
			ms = append(ms, m)
		}
	}
	t.Notes = append(t.Notes,
		"every workload runs with its deliberate race injected (ground truth);",
		"(x) is overhead vs the full-detection run of the same bench;",
		"miss = racy addresses of the full run the sampled run did not report;",
		"sampled = slow-path accesses admitted to the protocol / total accesses;",
		"a sampled race absent from the full run fails the harness (soundness)")
	return t, ms, nil
}
