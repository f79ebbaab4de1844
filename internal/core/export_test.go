package core

import (
	"fmt"
	"sync"
)

// TracePages records every pooled page handed out and taken back until the
// returned stop function is called. stop reports the pages handed out while
// already out or put back while not out (bad), and the pages still out.
func TracePages() (stop func() (bad, out int)) {
	var mu sync.Mutex
	held := map[any]bool{}
	nbad := 0
	pageTrace = func(first any, isOut bool) {
		mu.Lock()
		defer mu.Unlock()
		if held[first] == isOut {
			nbad++
		}
		if isOut {
			held[first] = true
		} else {
			delete(held, first)
		}
	}
	return func() (int, int) {
		pageTrace = nil
		mu.Lock()
		defer mu.Unlock()
		return nbad, len(held)
	}
}

// PagesOut returns the pages out of every size class of every page pool
// that has any, by "pool/capacity".
func PagesOut() map[string]int {
	out := map[string]int{}
	addPagesOut(out, "bytes", &bytePages)
	addPagesOut(out, "words", &wordPages)
	addPagesOut(out, "links", &linkPages)
	return out
}

func addPagesOut[T any](out map[string]int, name string, pool *pagePool[T]) {
	for i := range pool.classes {
		cl := &pool.classes[i]
		cl.mu.Lock()
		if cl.out != 0 {
			out[fmt.Sprintf("%s/%d", name, 1<<i)] = cl.out
		}
		cl.mu.Unlock()
	}
}
