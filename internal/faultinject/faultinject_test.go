package faultinject

import (
	"bytes"
	"errors"
	"testing"
)

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	for _, pt := range Points() {
		if p.Fire(pt) {
			t.Fatalf("nil plan fired %v", pt)
		}
		p.Delay(pt) // must not sleep or crash
	}
}

func TestSingleFiresAtExactOccurrence(t *testing.T) {
	p := Single(ConsumerPanic, 3)
	for i := 1; i <= 6; i++ {
		got := p.Fire(ConsumerPanic)
		if got != (i == 3) {
			t.Fatalf("occurrence %d: fired=%v", i, got)
		}
	}
	if p.Fire(ConsumerStall) {
		t.Fatal("unarmed point fired")
	}
	if p.fireAt[ConsumerPanic] != 3 || p.fireAt[ConsumerStall] != 0 {
		t.Fatalf("plan arms %v, want consumer-panic at 3 only", p.fireAt)
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	seen := map[Point]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		a, b := NewPlan(seed), NewPlan(seed)
		if a.fireAt != b.fireAt {
			t.Fatalf("seed %d: plans diverge: %v vs %v", seed, a.fireAt, b.fireAt)
		}
		for _, pt := range Points() {
			if a.fireAt[pt] != 0 {
				seen[pt] = true
			}
		}
	}
	for _, pt := range Points() {
		if !seen[pt] {
			t.Fatalf("64 seeds never armed %v", pt)
		}
	}
}

func TestCorruptBytesProperties(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 64)
	const skip = 7
	modes := map[string]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		orig := append([]byte(nil), data...)
		out, mode := CorruptBytes(seed, data, skip)
		if !bytes.Equal(data, orig) {
			t.Fatalf("seed %d: input mutated", seed)
		}
		if len(out) > skip && len(data) > skip && !bytes.Equal(out[:skip], data[:skip]) {
			if mode != CorruptTruncate || len(out) >= skip {
				t.Fatalf("seed %d (%s): header not preserved", seed, mode)
			}
		}
		if bytes.Equal(out, data) {
			t.Fatalf("seed %d (%s): stream unchanged", seed, mode)
		}
		modes[mode] = true
	}
	for _, want := range []string{CorruptTruncate, CorruptBitFlip, CorruptForgePrefix} {
		if !modes[want] {
			t.Fatalf("64 seeds never produced %s", want)
		}
	}
	if out, mode := CorruptBytes(1, []byte{1, 2}, 4); mode != "unchanged" || !bytes.Equal(out, []byte{1, 2}) {
		t.Fatalf("short stream: got %v (%s)", out, mode)
	}
}

func TestPanicIsAnError(t *testing.T) {
	var err error = Panic{Point: PageFail}
	var fp Panic
	if !errors.As(err, &fp) || fp.Point != PageFail {
		t.Fatalf("Panic does not round-trip through errors.As: %v", err)
	}
	if err.Error() == "" || (Panic{}).Error() == "" {
		t.Fatal("empty error text")
	}
}
