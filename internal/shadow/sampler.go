// Tier-1 access sampling: the always-on front-end between the free skip
// tiers and the detection protocol.
//
// The filter stack for one slow-path access is ordered by cost:
//
//	owned epoch → read epoch → epoch verdict transfer → sampler → protocol
//
// Tier 0 (everything before the sampler) is the set of skips that resolve
// an access for free *with a proven verdict*; those always run. The
// sampler only gates accesses that would otherwise pay a real
// reachability query: a deterministic, seed-driven hash of
// (address, construct generation) admits a Rate fraction of them, and an
// optional per-page coupon budget bounds the admissions per page per
// generation, so repeated hot-page traffic converges to O(1) sampled
// accesses per page per epoch (Al Thokair et al., arXiv:2506.20127).
//
// The crucial asymmetry: an unsampled access skips the *verdict*, never
// the *install*. Unsampled reads still append to the reader list and
// re-stamp; unsampled writes still flush readers and install the writer.
// The shadow state a later sampled query consults is therefore exactly
// the state the full protocol would have left (racer identity included),
// and sampling can only miss races — it can never fabricate one. See
// FuzzSamplingNeverFalsePositive for the differential pin and the
// package progen tests for the rate-1.0 identity proof.
//
// Determinism: the rate test depends only on (seed, address, generation),
// all of which are identical whichever checker — the inline one or one of
// the pool's consumers — checks the access, so with an unlimited
// budget the sampled access set — and every verdict and counter derived
// from it — is identical in every Consumers configuration. A finite
// budget keeps the *totals* deterministic (per page and generation,
// exactly min(budget, rate-admitted accesses) coupons are consumed);
// budgeted runs promise the subset property, not cross-config identity.
package shadow

// couponRemBits splits the per-page coupon word: the low bits count the
// remaining admissions for the current generation, the high bits tag the
// generation (plus one, so the zero value of a fresh page can never
// masquerade as an exhausted generation-0 budget). The generation tag
// wraps at 2^40; a wrap could at worst reuse a stale remaining-count,
// which costs sampling accuracy on that page for one generation, never
// soundness.
const (
	couponRemBits = 24
	couponRemMask = (1 << couponRemBits) - 1
	couponGenMask = (1 << (64 - couponRemBits)) - 1
)

// maxSamplingBudget is the largest representable per-page budget; larger
// configured budgets clamp here (16.7M admissions per page per
// generation — four thousand times the page size, i.e. unlimited in
// practice).
const maxSamplingBudget = couponRemMask

// sampler is the tier-1 sampling state of one History. The zero value is
// disarmed: every access pays the full protocol.
type sampler struct {
	on        bool
	always    bool   // Rate >= 1: the rate test admits everything
	threshold uint64 // admit iff hash(seed, addr, gen) < threshold
	budget    uint64 // per-page per-generation admissions; 0 = unlimited
	seed      uint64
}

// SetSampling arms the tier-1 sampler: rate in (0, 1] is the fraction of
// protocol-bound accesses admitted to the full query path (rate <= 0
// disarms, restoring full detection), budget bounds admissions per shadow
// page per construct generation (0 = unlimited), and seed drives the
// deterministic admission hash. Call before any access.
func (h *History) SetSampling(rate float64, budget int, seed uint64) {
	if rate <= 0 {
		h.smp = sampler{}
		return
	}
	b := uint64(0)
	if budget > 0 {
		b = uint64(budget)
		if b > maxSamplingBudget {
			b = maxSamplingBudget
		}
	}
	h.smp = sampler{
		on:        true,
		always:    rate >= 1,
		threshold: uint64(rate * float64(1<<63) * 2),
		budget:    b,
		seed:      seed,
	}
}

// admit is the deterministic rate test: a splitmix-style mix of the
// sampler seed, the word address and the construct generation, compared
// against the rate threshold. No state, no randomness — the admitted set
// is a pure function of the run's inputs.
func (sm *sampler) admit(addr, gen uint64) bool {
	if sm.always {
		return true
	}
	x := sm.seed ^ addr*0x9e3779b97f4a7c15 ^ gen*0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return x < sm.threshold
}

// takeCoupon consumes one admission coupon from p's budget for the given
// generation, refreshing the budget when the page is first sampled in a
// new generation. The CAS loop keeps the consumed total exact whichever
// checker samples the page; uncontended, it succeeds on the first try.
func (sm *sampler) takeCoupon(p *page, gen uint64) bool {
	tag := ((gen + 1) & couponGenMask) << couponRemBits
	for {
		old := p.coupon.Load()
		rem := old & couponRemMask
		if old&^uint64(couponRemMask) != tag {
			rem = sm.budget // first sample of this generation: refresh
		}
		if rem == 0 {
			return false
		}
		if p.coupon.CompareAndSwap(old, tag|(rem-1)) {
			return true
		}
	}
}

// sampleSlow decides whether one protocol-bound access pays the full
// query cost, counting the decision on the checker. The generation comes
// from the batch's Ctx. Callers check smp.on first so a disarmed sampler
// costs one predictable branch.
func (c *Checker) sampleSlow(p *page, addr uint64) bool {
	sm := &c.h.smp
	if !sm.admit(addr, c.ctx.Gen) {
		return false
	}
	if sm.budget != 0 && !sm.takeCoupon(p, c.ctx.Gen) {
		c.budgetSkips++
		return false
	}
	c.sampledAccesses++
	return true
}
