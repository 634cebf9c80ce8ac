package core

import (
	"sync"
	"testing"
)

func TestStrandTable(t *testing.T) {
	st := NewStrandTable(4)
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
	st := NewStrandTable(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add must panic: the engine relies on dense ids")
		}
	}()
	st.Add(2, 1) // skips id 1
}

func TestStrandTableGrowth(t *testing.T) {
	st := NewStrandTable(1)
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
