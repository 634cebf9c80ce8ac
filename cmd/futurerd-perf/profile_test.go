package main

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestProfileCPUByLabel captures a CPU profile in-process and checks that
// labeled work is attributed to its label and to the program layer.
func TestProfileCPUByLabel(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("config", "spin"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes(), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	got := p.byLayer("config")["spin"]
	var total int64
	for _, ns := range got {
		total += ns
	}
	// 300 ms of spinning sampled at 100 Hz; allow for a slow, shared CPU.
	if total < int64(100*time.Millisecond) {
		t.Fatalf("labeled CPU = %v, want most of 300ms (by layer: %v)", time.Duration(total), got)
	}
	if got["program"] < total/2 {
		t.Fatalf("program layer = %v of %v labeled; by layer: %v", time.Duration(got["program"]), time.Duration(total), got)
	}
	if _, err := parseProfile(buf.Bytes(), "delay"); err == nil {
		t.Fatal("a CPU profile has no delay samples, want an error")
	}
}

// TestProfileBlockDelay captures a block profile in-process and checks the
// delay of a known wait is found under the waiting function's frames.
func TestProfileBlockDelay(t *testing.T) {
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)
	ch := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(ch)
	}()
	<-ch
	var buf bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes(), "delay")
	if err != nil {
		t.Fatal(err)
	}
	waited := p.total(func(stack []string) bool {
		return slices.ContainsFunc(stack, func(fn string) bool { return strings.HasSuffix(fn, ".TestProfileBlockDelay") })
	})
	if waited < int64(40*time.Millisecond) {
		t.Fatalf("block delay under the test = %v, want about 50ms", time.Duration(waited))
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"futurerd/internal/shadow.(*History).readWordSlow", "futurerd/internal/detect.(*Engine).Run"}, "shadow"},
		{[]string{"runtime.mapaccess1_fast64", "futurerd/internal/shadow.(*History).appendSpill"}, "shadow"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "futurerd/internal/core.(*Rdag).close"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"compress/flate.(*decompressor).huffSym", "futurerd/internal/trace.(*v2Decoder).next"}, "trace"},
		{[]string{"futurerd/internal/ds.(*UnionFind).Find", "futurerd/internal/core.(*MultiBags).Precedes"}, "core"},
		{[]string{"futurerd.(*Array[go.shape.int32]).Get", "futurerd/internal/workloads.(*LCS).kernel"}, "program"},
		{[]string{"futurerd/internal/event.insertSpan"}, "event"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
