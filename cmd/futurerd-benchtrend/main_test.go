package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const small = `{"size": "test", "iters": 1, "measurements": [
  {"figure": "fig6", "bench": "lcs", "config": "baseline", "seconds": 0.1},
  {"figure": "fig6", "bench": "lcs", "config": "full", "seconds": 0.2,
   "overhead_vs_baseline": 2,
   "stats": {"RaceCount": 0, "Reach": {"Queries": 25}, "Trace": {"Reason": ""}}}]}`

// run compares two documents and returns the gate's output and failures.
func run(t *testing.T, base, cur string) (string, int) {
	t.Helper()
	b, err := decode(strings.NewReader(base))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	c, err := decode(strings.NewReader(cur))
	if err != nil {
		t.Fatalf("current: %v", err)
	}
	var out bytes.Buffer
	n := compare(&out, b, c)
	return out.String(), n
}

func TestCompare(t *testing.T) {
	for _, c := range []struct {
		name  string
		cur   string
		fails int
		want  []string // lines the output must contain
	}{
		{"identical", small, 0, nil},
		{"timings and consumers ignored",
			strings.NewReplacer(`"seconds": 0.2`, `"seconds": 9`, `"overhead_vs_baseline": 2`, `"overhead_vs_baseline": 90`,
				`"iters": 1,`, `"iters": 1, "consumers": 1,`).Replace(small), 0, nil},
		{"nested leaf drift", strings.Replace(small, `"Queries": 25`, `"Queries": 26`, 1), 1,
			[]string{"DRIFT  fig6/lcs/full.stats.Reach.Queries = 26, baseline 25"}},
		{"string leaf drift", strings.Replace(small, `"Reason": ""`, `"Reason": "cut"`, 1), 1,
			[]string{"DRIFT  fig6/lcs/full.stats.Trace.Reason = cut, baseline "}},
		{"key only in baseline", strings.Replace(small, `"RaceCount": 0, `, ``, 1), 1,
			[]string{`GONE   fig6/lcs/full.stats.RaceCount (baseline "0")`}},
		{"key only in current", strings.Replace(small, `"RaceCount": 0,`, `"RaceCount": 0, "DroppedPairs": 0,`, 1), 1,
			[]string{`ADDED  fig6/lcs/full.stats.DroppedPairs (current "0")`}},
		{"row only in baseline",
			strings.Replace(small, `{"figure": "fig6", "bench": "lcs", "config": "baseline", "seconds": 0.1},`, ``, 1), 1,
			[]string{`GONE   fig6/lcs/baseline (baseline "")`}},
		{"row only in current",
			strings.Replace(small, `"measurements": [`, `"measurements": [{"figure": "armed", "bench": "lcs", "config": "multibags"},`, 1), 1,
			[]string{`ADDED  armed/lcs/multibags (current "")`}},
		{"vanished stats",
			`{"size": "test", "iters": 1, "measurements": [
			  {"figure": "fig6", "bench": "lcs", "config": "baseline"},
			  {"figure": "fig6", "bench": "lcs", "config": "full"}]}`, 3,
			[]string{"GONE   fig6/lcs/full.stats.RaceCount", "GONE   fig6/lcs/full.stats.Reach.Queries",
				"GONE   fig6/lcs/full.stats.Trace.Reason"}},
		{"size mismatch", strings.Replace(small, `"size": "test"`, `"size": "quick"`, 1), 1,
			[]string{"DRIFT  size = quick, baseline test"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, n := run(t, small, c.cur)
			if n != c.fails {
				t.Errorf("%d failures, want %d:\n%s", n, c.fails, out)
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}
}

func TestDecodeRejectsDuplicateRows(t *testing.T) {
	doc := `{"size": "test", "measurements": [
	  {"figure": "fig6", "bench": "lcs", "config": "full"},
	  {"figure": "fig6", "bench": "lcs", "config": "full"}]}`
	if _, err := decode(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "fig6/lcs/full") {
		t.Fatalf("decode = %v, want an error naming the row", err)
	}
}

// damage applies edit to the committed baseline's rows and gates the
// result against the untouched baseline.
func damage(t *testing.T, edit func(rows []any) []any) (string, int) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["measurements"] = edit(doc["measurements"].([]any))
	cur, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return run(t, string(raw), string(cur))
}

func is(row any, name string) bool {
	m := row.(map[string]any)
	return m["figure"].(string)+"/"+m["bench"].(string)+"/"+m["config"].(string) == name
}

// TestCommittedBaselineDamage: each kind of damage to a real document
// fails the gate and names the row or key it hit.
func TestCommittedBaselineDamage(t *testing.T) {
	t.Run("row deleted", func(t *testing.T) {
		out, n := damage(t, func(rows []any) []any {
			var kept []any
			for _, r := range rows {
				if !is(r, "fig6/lcs/full") {
					kept = append(kept, r)
				}
			}
			return kept
		})
		if n == 0 || !strings.Contains(out, "GONE   fig6/lcs/full (baseline") {
			t.Fatalf("deleting fig6/lcs/full: %d failures\n%s", n, out)
		}
	})
	t.Run("stats stripped", func(t *testing.T) {
		out, n := damage(t, func(rows []any) []any {
			for _, r := range rows {
				if is(r, "fig7/mm/full") {
					delete(r.(map[string]any), "stats")
				}
			}
			return rows
		})
		if n == 0 || !strings.Contains(out, "GONE   fig7/mm/full.stats.Shadow.Reads") {
			t.Fatalf("stripping fig7/mm/full's stats: %d failures\n%s", n, out)
		}
	})
	for _, leaf := range [][]string{{"TruncatedRaces"}, {"Trace", "TruncatedAtEvent"}} {
		t.Run(strings.Join(leaf, "."), func(t *testing.T) {
			rowsWithStats := 0
			out, n := damage(t, func(rows []any) []any {
				for _, r := range rows {
					m, ok := r.(map[string]any)["stats"].(map[string]any)
					if !ok {
						continue
					}
					rowsWithStats++
					for _, k := range leaf[:len(leaf)-1] {
						m = m[k].(map[string]any)
					}
					m[leaf[len(leaf)-1]] = m[leaf[len(leaf)-1]].(float64) + 1
				}
				return rows
			})
			if rowsWithStats == 0 || n != rowsWithStats {
				t.Fatalf("changing %v on %d rows: %d failures\n%s", leaf, rowsWithStats, n, out)
			}
			if want := ".stats." + strings.Join(leaf, ".") + " = "; !strings.Contains(out, want) {
				t.Fatalf("output does not name %q:\n%s", want, out)
			}
		})
	}
}
