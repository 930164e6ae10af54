package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// selfTimes attributes every instant of a request to exactly one span: the
// deepest span active at that instant (the later-recorded one among equals,
// which is the later-started sibling). A span's self time is therefore its
// duration minus the part of it that its descendants cover, and the self
// times of a request add up to its root span's duration even when siblings
// overlap, as the two shards' services do. Spans are clipped to the root.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	if len(spans) == 0 {
		return self
	}
	lo, hi := spans[0].Start, spans[0].End
	depth := make([]int, len(spans))
	for i := 1; i < len(spans); i++ {
		if p := spans[i].Parent; p >= 0 && p < i {
			depth[i] = depth[p] + 1
		}
	}
	clip := func(t int64) int64 { return min(max(t, lo), hi) }
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, clip(s.Start), clip(s.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if a == b {
			continue
		}
		owner := -1
		for i, s := range spans {
			if clip(s.Start) <= a && clip(s.End) >= b && (owner < 0 || depth[i] >= depth[owner]) {
				owner = i
			}
		}
		if owner >= 0 {
			self[owner] += b - a
		}
	}
	return self
}

// layerStats accumulates, over the traced requests, each layer's self time,
// span duration and span count.
type layerStats struct {
	requests int
	wallNs   int64 // sum of root span durations
	selfNs   map[string]int64
	durNs    map[string]int64
	count    map[string]int64
	n        map[string]int64 // sum of span.N per layer

	hopOverheadNs int64
	admitDelayNs  int64 // dispatch -> last shard admission, summed over requests
	readByKind    map[string][2]int64
}

func newLayerStats() *layerStats {
	return &layerStats{
		selfNs: make(map[string]int64), durNs: make(map[string]int64),
		count: make(map[string]int64), n: make(map[string]int64),
	}
}

// add folds one harvested request in.
func (ls *layerStats) add(rt *reqTrace) {
	self := selfTimes(rt.spans)
	ls.requests++
	ls.wallNs += rt.spans[0].End - rt.spans[0].Start
	ls.hopOverheadNs += int64(rt.hopOverhead)
	var engineStart, lastAdmit int64 = -1, -1
	for i, s := range rt.spans {
		ls.selfNs[s.Layer] += self[i]
		ls.durNs[s.Layer] += s.End - s.Start
		ls.count[s.Layer]++
		ls.n[s.Layer] += s.N
		switch s.Layer {
		case layerEngine:
			engineStart = s.Start
		case layerAdmit:
			lastAdmit = max(lastAdmit, s.Start)
		}
	}
	if engineStart >= 0 && lastAdmit > engineStart {
		ls.admitDelayNs += lastAdmit - engineStart
	}
}

// perRequestMs is a layer's mean self time per traced request.
func (ls *layerStats) perRequestMs(layer string) float64 {
	if ls.requests == 0 {
		return 0
	}
	return float64(ls.selfNs[layer]) / 1e6 / float64(ls.requests)
}

// meanSpanMs is the mean duration of one span of the layer.
func (ls *layerStats) meanSpanMs(layer string) float64 {
	if ls.count[layer] == 0 {
		return 0
	}
	return float64(ls.durNs[layer]) / 1e6 / float64(ls.count[layer])
}

// perRequest divides a total by the traced requests.
func (ls *layerStats) perRequest(total int64) float64 {
	if ls.requests == 0 {
		return 0
	}
	return float64(total) / float64(ls.requests)
}

// writeTraceFile writes every span as one JSON line:
// {trace, span, parent, layer, start_ns, end_ns[, n, key, attr]}.
func writeTraceFile(path string, traces []*reqTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Trace  string `json:"trace"`
		Span   int    `json:"span"`
		Parent int    `json:"parent"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		N      int64  `json:"n,omitempty"`
		Key    int64  `json:"key,omitempty"`
		Attr   string `json:"attr,omitempty"`
	}
	for seq, rt := range traces {
		id := rt.id.String()
		if !rt.harvested {
			id = fmt.Sprintf("unharvested-%d", seq)
		}
		for i, s := range rt.spans {
			if err := enc.Encode(line{id, i, s.Parent, s.Layer, s.Start, s.End, s.N, s.Key, s.Attr}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
