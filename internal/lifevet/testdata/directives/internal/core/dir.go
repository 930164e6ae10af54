package core

import (
	"context"
	"time"
)

// both silences two checks with one line-scoped directive.
func both(ms int64) (context.Context, time.Duration) {
	//lifevet:allow ctxflow, durovf -- fixture: one directive, two checks
	return context.Background(), time.Duration(ms) * time.Millisecond
}

//lifevet:allow durovf -- fixture: doc-comment directive covers the whole body
func helper(ms int64, sec float64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	return d + time.Duration(sec*1e9)
}

// stale hosts directives that match nothing, plus malformed ones.
func stale(n int) int {
	n++
	//lifevet:allow durovf -- fixture: nothing nearby converts a duration // want stale-directive "suppressed no durovf"
	n++
	//lifevet:allow warpclock -- fixture: no such analyzer // want stale-directive "unknown check"
	n++
	//lifevet:allow -- fixture: empty check list // want stale-directive "names no checks"
	return n + 1
}
