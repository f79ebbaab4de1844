package pagepool

import (
	"maps"
	"testing"
)

func TestCapRoundsUpToAClass(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {3, 4}, {1024, 1024}, {1025, 2048}, {MaxElems, MaxElems}, {MaxElems + 1, MaxElems + 1},
	} {
		if got := Cap(c.n); got != c.want {
			t.Errorf("Cap(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestBooksBalance: a page put back is the next one handed out, pages out
// are counted until they are put or forgotten, and an oversized page is a
// plain allocation the books never see.
func TestBooksBalance(t *testing.T) {
	before, st := Out(), Snapshot()
	pg := Int64s.Get(1000)
	if cap(pg) != 1024 || len(pg) != 0 {
		t.Fatalf("Get(1000): len %d cap %d, want 0 and 1024", len(pg), cap(pg))
	}
	if got := Snapshot().OutBytes - st.OutBytes; got != 8*1024 {
		t.Fatalf("out_bytes grew by %d, want %d", got, 8*1024)
	}
	first := &pg[:1][0]
	Int64s.Put(pg)
	again := Int64s.Get(1024)
	if &again[:1][0] != first {
		t.Error("a page put back was not the next one handed out")
	}
	Int64s.Forget(again)
	big := Float64s.Get(MaxElems + 1)
	Float64s.Put(big)
	if after := Out(); !maps.Equal(after, before) {
		t.Fatalf("pages out %v before, %v after", before, after)
	}
	if after := Snapshot(); after.OutBytes != st.OutBytes {
		t.Fatalf("out_bytes %d before, %d after", st.OutBytes, after.OutBytes)
	}
}

// TestPoisonAndTrace: under Poison a returned page is overwritten, and Trace
// sees a page that was not put back.
func TestPoisonAndTrace(t *testing.T) {
	defer Poison()()
	stop := Trace()
	pg := Links.Get(16)[:16]
	pg[3] = 7
	Links.Put(pg)
	if pg[3] != -1 {
		t.Errorf("a returned link page reads %d, want the poison -1", pg[3])
	}
	held := Links.Get(16)
	if bad, out := stop(); bad != 0 || out != 1 {
		t.Fatalf("trace: %d bad, %d out; want 0 and 1", bad, out)
	}
	Links.Put(held)
}
