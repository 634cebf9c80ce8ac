package trace_test

// External test package: the workload size check needs
// internal/workloads, which imports the root futurerd package, which in
// turn imports internal/trace — an import cycle for in-package tests but
// not for this one.

import (
	"bytes"
	"testing"

	"futurerd/internal/detect"
	"futurerd/internal/trace"
	"futurerd/internal/workloads"
)

// v2Ceiling is each workload's size bound in bytes at SizeTest: a third
// of what the retired v1 format (one opcode plus absolute uvarint
// operands per uncoalesced access, no compression) took for the same
// program, rounded down.
var v2Ceiling = map[string]int{
	"lcs":       19490,
	"sw":        20081,
	"mm":        15696,
	"heartwall": 12654,
	"dedup":     2897,
	"bst":       2152,
	"pagerank":  1606,
}

// TestV2SizeCeilings is the format's size acceptance criterion: every
// workload's v2 trace stays within its ceiling.
func TestV2SizeCeilings(t *testing.T) {
	for _, b := range workloads.All(workloads.SizeTest) {
		raw, err := trace.RecordBytes(b.Structured().Run)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ceil, ok := v2Ceiling[b.Name]
		if !ok {
			t.Fatalf("%s: no size ceiling", b.Name)
		}
		if len(raw) > ceil {
			t.Errorf("%s: v2 trace is %d bytes, ceiling %d", b.Name, len(raw), ceil)
		}
		st, err := trace.Stat(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		t.Logf("%-10s v2=%7dB ceiling=%7dB bytes/event=%.2f",
			b.Name, len(raw), ceil, st.BytesPerEvent())
	}
}

// TestWorkloadTraceRoundTrip replays every workload's v2 trace and
// checks the verdict against direct detection — the workload-scale
// counterpart of the progen differential.
func TestWorkloadTraceRoundTrip(t *testing.T) {
	for _, b := range workloads.All(workloads.SizeTest) {
		raw, err := trace.RecordBytes(b.Structured().Run)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		cfg := detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull}
		direct := detect.NewEngine(cfg).Run(b.Structured().Run)
		rep, err := trace.ReplayBytes(raw, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if direct.Err != nil || rep.Err != nil {
			t.Fatalf("%s: errs %v / %v", b.Name, direct.Err, rep.Err)
		}
		if len(direct.Races) != len(rep.Races) ||
			direct.Stats.RaceCount != rep.Stats.RaceCount ||
			direct.Stats.Strands != rep.Stats.Strands ||
			direct.Stats.Shadow.Reads != rep.Stats.Shadow.Reads ||
			direct.Stats.Shadow.Writes != rep.Stats.Shadow.Writes {
			t.Fatalf("%s: replay diverges from direct detection:\ndirect %+v\nreplay %+v",
				b.Name, direct.Stats, rep.Stats)
		}
	}
}
