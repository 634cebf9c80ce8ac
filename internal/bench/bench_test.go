package bench

import (
	"testing"

	"futurerd"
	"futurerd/internal/workloads"
)

// TestArmed: the armed table has one racy, untimed row with its stats per
// Figure 6 and Figure 7 workload.
func TestArmed(t *testing.T) {
	_, ms, err := Armed(Options{Size: workloads.SizeTest})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(workloads.All(workloads.SizeTest)); len(ms) != want {
		t.Fatalf("%d rows, want %d", len(ms), want)
	}
	for _, m := range ms {
		if m.Stats == nil || m.Stats.RaceCount == 0 || m.Seconds != 0 {
			t.Errorf("%s/%s/%s: stats %v, seconds %v", m.Figure, m.Bench, m.Config, m.Stats, m.Seconds)
		}
	}
}

type unarmable struct{}

func (unarmable) Name() string         { return "unarmable" }
func (unarmable) Run(t *futurerd.Task) {}
func (unarmable) Validate() error      { return nil }

func TestArmRejectsWorkloadWithoutRace(t *testing.T) {
	if err := arm(&unarmable{}); err == nil {
		t.Fatal("arm accepted a workload with no injected race")
	}
}

// TestFigureRowsCarryStats: every detecting configuration's row carries
// its report's counters, and only the baseline row has none.
func TestFigureRowsCarryStats(t *testing.T) {
	_, ms, err := Fig6(Options{Size: workloads.SizeTest, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if (m.Stats == nil) != (m.Config == "baseline") {
			t.Errorf("%s/%s/%s: stats %v", m.Figure, m.Bench, m.Config, m.Stats)
		}
	}
}
