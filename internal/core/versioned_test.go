package core

import (
	"sync"
	"testing"
	"time"
)

// logReach records the order construct events arrive in, so tests can
// prove the versioned log replays mutations exactly as recorded.
type logReach struct {
	events []uint32
}

func (l *logReach) Init(f FnID, s StrandID)     { l.events = append(l.events, uint32(s)) }
func (l *logReach) Spawn(r SpawnRec)            { l.events = append(l.events, uint32(r.Fork)) }
func (l *logReach) CreateFut(r CreateRec)       { l.events = append(l.events, uint32(r.Creator)) }
func (l *logReach) Return(r ReturnRec)          { l.events = append(l.events, uint32(r.Last)) }
func (l *logReach) SyncJoin(r JoinRec)          { l.events = append(l.events, uint32(r.Join)) }
func (l *logReach) GetFut(r GetRec)             { l.events = append(l.events, uint32(r.Getter)) }
func (l *logReach) Precedes(u, v StrandID) bool { return false }
func (l *logReach) Name() string                { return "log" }
func (l *logReach) Stats() ReachStats           { return ReachStats{} }

// TestVersionedReplaysInOrder: mutations recorded in order are applied in
// order, split across ApplyTo calls at arbitrary versions, and never
// beyond the requested version.
func TestVersionedReplaysInOrder(t *testing.T) {
	l := &logReach{}
	v := NewVersioned(l, 64)
	for i := 1; i <= 10; i++ {
		ver := v.Record(Mut{Op: MutSpawn, Spawn: SpawnRec{Fork: StrandID(i)}})
		if ver != uint64(i) {
			t.Fatalf("Record returned version %d, want %d", ver, i)
		}
	}
	v.ApplyTo(3)
	if len(l.events) != 3 {
		t.Fatalf("ApplyTo(3) applied %d mutations", len(l.events))
	}
	v.ApplyTo(3) // idempotent
	if len(l.events) != 3 {
		t.Fatalf("repeated ApplyTo(3) re-applied mutations: %d", len(l.events))
	}
	v.Drain()
	if len(l.events) != 10 {
		t.Fatalf("Drain applied %d of 10", len(l.events))
	}
	for i, s := range l.events {
		if s != uint32(i+1) {
			t.Fatalf("mutation %d applied out of order: strand %d", i, s)
		}
	}
}

// TestVersionedWindowBackPressure: Record blocks once the recorder runs a
// full window ahead, and resumes when an applier catches up.
func TestVersionedWindowBackPressure(t *testing.T) {
	l := &logReach{}
	v := NewVersioned(l, 4)
	for i := 0; i < 4; i++ {
		v.Record(Mut{Op: MutSpawn})
	}
	blocked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(blocked)
		v.Record(Mut{Op: MutSpawn}) // window full: must block
		close(done)
	}()
	<-blocked
	select {
	case <-done:
		t.Fatal("Record did not block at the window bound")
	case <-time.After(50 * time.Millisecond):
	}
	v.ApplyTo(1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record stayed blocked after the applier advanced")
	}
	v.Drain()
	if got := v.Lag(); got != 0 {
		t.Fatalf("Lag after Drain = %d", got)
	}
	if len(l.events) != 5 {
		t.Fatalf("applied %d of 5", len(l.events))
	}
}

// TestStrandTableConcurrentReads: the recorder appends strands while
// readers resolve already-published ids from another goroutine — the
// atomic header publish keeps this race-free (run under -race).
func TestStrandTableConcurrentReads(t *testing.T) {
	st := NewStrandTable(4)
	const n = 20000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if l := st.Len(); l > 0 {
				s := StrandID(1 + l/2)
				if got := st.FnOf(s); got != FnID(s)+1 {
					t.Errorf("FnOf(%d) = %d, want %d", s, got, FnID(s)+1)
					return
				}
			}
		}
	}()
	for i := 1; i <= n; i++ {
		st.Add(StrandID(i), FnID(i)+1)
	}
	close(stop)
	wg.Wait()
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
}
