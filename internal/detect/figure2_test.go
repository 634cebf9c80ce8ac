package detect

import (
	"testing"

	"futurerd/internal/core"
)

// TestPaperFigure2 reconstructs the structured-future program of the
// paper's Figure 2 and asserts the sequential-precedence relations its
// bag-state table implies, under MultiBags, MultiBags+ and the oracle.
//
// Program shape (functions A–F, node numbers from the figure):
//
//	A (main): 1[create B] → 15[get B] → 16[get F] → 17
//	B: 2[create C] → 10[get C] → 11[create F] → 14, returns F's handle
//	C: 3[create D] → 5[create E] → 8[get E] → 9, returns D's handle
//	D: 4 (leaf)
//	E: 6–7 (leaf)
//	F: 12[get D] → 13
//
// The table's step 12 (F's first strand executing) shows every strand in
// an S-bag except D's strand 4, which is in P_D: that is, everything
// executed so far precedes F's first strand except D, which is parallel.
// Step 13 (after F gets D) moves 4 into S_F. Step 17 (after A gets F)
// shows everything in S_A.
func TestPaperFigure2(t *testing.T) {
	for _, mode := range []Mode{ModeMultiBags, ModeMultiBagsPlus, ModeOracle} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			e := NewEngine(Config{Mode: mode, CheckStructured: true})

			// Strand ids recorded at the interesting points.
			var sA1, sB1, sC1, sD, sE, sF1, sFpost core.StrandID

			// q asks whether u precedes the current strand of tk, once the
			// pending construct mutations have reached the relation.
			q := func(tk *Task, u core.StrandID) bool {
				e.handOff()
				return e.reach.Precedes(u, tk.strand)
			}

			rep := e.Run(func(a *Task) {
				sA1 = a.strand
				hB := a.CreateFut(func(b *Task) any {
					sB1 = b.strand
					hC := b.CreateFut(func(c *Task) any {
						sC1 = c.strand
						hD := c.CreateFut(func(d *Task) any {
							sD = d.strand
							return nil
						})
						hE := c.CreateFut(func(ec *Task) any {
							sE = ec.strand
							return nil
						})
						// Step 8: E has returned but is not joined: E in
						// P-bag, D in P-bag.
						if q(c, sE) {
							t.Error("step 8: E should be parallel before get(E)")
						}
						if q(c, sD) {
							t.Error("step 8: D should be parallel")
						}
						c.GetFut(hE)
						// Step 9: E joined into S_C.
						if !q(c, sE) {
							t.Error("step 9: E should precede after get(E)")
						}
						return hD
					})
					hD := b.GetFut(hC).(*Fut)
					// Step 11: C (and E inside it) joined into S_B; D still loose.
					if !q(b, sC1) || !q(b, sE) {
						t.Error("step 11: C and E should precede B after get(C)")
					}
					if q(b, sD) {
						t.Error("step 11: D should still be parallel")
					}
					hF := b.CreateFut(func(f *Task) any {
						sF1 = f.strand
						// Step 12: everything executed so far precedes F's
						// first strand except D.
						for name, u := range map[string]core.StrandID{
							"A1": sA1, "B1": sB1, "C1": sC1, "E": sE,
						} {
							if !q(f, u) {
								t.Errorf("step 12: %s should precede F's first strand", name)
							}
						}
						if q(f, sD) {
							t.Error("step 12: D should be parallel with F's first strand")
						}
						f.GetFut(hD)
						sFpost = f.strand
						// Step 13: D joined into S_F.
						if !q(f, sD) {
							t.Error("step 13: D should precede F after get(D)")
						}
						return nil
					})
					// Step 14: F has returned, not joined: F's strands parallel.
					if q(b, sF1) || q(b, sFpost) {
						t.Error("step 14: F should be parallel before A gets it")
					}
					return hF
				})
				hF := a.GetFut(hB).(*Fut)
				// Step 16: B's subtree (including C, E, D-through-F? no — D
				// went into F's bag, F not yet joined) — B, C, E precede.
				if !q(a, sB1) || !q(a, sC1) || !q(a, sE) {
					t.Error("step 16: B, C, E should precede A after get(B)")
				}
				if q(a, sD) || q(a, sF1) {
					t.Error("step 16: D and F should still be parallel")
				}
				a.GetFut(hF)
				// Step 17: everything joined.
				for name, u := range map[string]core.StrandID{
					"A1": sA1, "B1": sB1, "C1": sC1, "D": sD, "E": sE,
					"F1": sF1, "Fpost": sFpost,
				} {
					if !q(a, u) {
						t.Errorf("step 17: %s should precede the final strand", name)
					}
				}
			})
			if rep.Err != nil {
				t.Fatalf("unexpected engine error: %v", rep.Err)
			}
			// The program is a structured use of futures: the discipline
			// checker must be silent.
			for _, v := range rep.Violations {
				t.Errorf("unexpected violation: %s: %s", v.Kind, v.Detail)
			}
		})
	}
}
