package core

import (
	"sync"
	"testing"
)

func TestStrandTable(t *testing.T) {
	st := NewStrandTable()
	if st.Len() != 0 {
		t.Fatalf("fresh table Len = %d", st.Len())
	}
	st.Add(1, 10)
	st.Add(2, 10)
	st.Add(3, 11)
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	if st.FnOf(1) != 10 || st.FnOf(3) != 11 {
		t.Fatal("FnOf wrong")
	}
}

func TestStrandTableDensePanic(t *testing.T) {
	st := NewStrandTable()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add must panic: the engine relies on dense ids")
		}
	}()
	st.Add(2, 1) // skips id 1
}

func TestStrandTableGrowth(t *testing.T) {
	st := NewStrandTable()
	for s := StrandID(1); s <= 10000; s++ {
		st.Add(s, FnID(s%7))
	}
	if st.Len() != 10000 {
		t.Fatalf("Len = %d", st.Len())
	}
	if st.FnOf(9999) != FnID(9999%7) {
		t.Fatal("FnOf after growth wrong")
	}
}

// TestStrandTableAddAllocs: adding a strand inside a block allocates
// nothing; only a full block costs an allocation.
func TestStrandTableAddAllocs(t *testing.T) {
	st := NewStrandTable()
	s := StrandID(1)
	if a := testing.AllocsPerRun(strandBlock/2, func() { st.Add(s, 1); s++ }); a != 0 {
		t.Fatalf("Add inside a block allocates %v times, want 0", a)
	}
	if st.Len() != int(s)-1 {
		t.Fatalf("Len = %d, want %d", st.Len(), s-1)
	}
}

// TestStrandTableConcurrentReads: the recorder appends strands while a
// reader resolves the newest published id from another goroutine, so
// reads meet every block boundary as it is published; the atomic length
// and directory keep this race-free (run under -race).
func TestStrandTableConcurrentReads(t *testing.T) {
	st := NewStrandTable()
	const n = 20 * strandBlock
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
				s := StrandID(l)
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
