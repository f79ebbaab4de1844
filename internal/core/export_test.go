package core

import "sync"

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
