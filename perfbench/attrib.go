package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Span attribution. The server writes each traced request's completed
// spans as one contiguous JSONL block whose first line is the root
// ("serve.request"). attribute folds one block into per-layer totals:
//
//   - Self time is a span's duration minus the union of its children's
//     intervals, so overlapping worker-pool children (markov.batch,
//     sim.fleet.shard) are not simply summed.
//   - Wall shares split the root interval among the spans open at each
//     instant that have no open child: two workers running in parallel
//     each get half of that instant. The shares of one request sum to its
//     root duration; the root's own share is its self time.
//   - A span whose declared parent does not enclose it in time (it
//     started after the parent ended, as the NDJSON sweep's serve.compute
//     does under serve.cache) is attributed to its nearest ancestor that
//     does enclose it, the root at worst, and counted as an orphan.

// spanRec is one exported span, as obs.SpanRecord encodes it.
type spanRec struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"span"`
	Start  float64 `json:"start"`
	Dur    float64 `json:"seconds"`
}

func (s *spanRec) end() float64 { return s.Start + s.Dur }

// encloses reports whether s's interval contains c's, allowing for the
// rounding of exported offsets.
func (s *spanRec) encloses(c *spanRec) bool {
	const eps = 1e-9
	return s.Start <= c.Start+eps && c.end() <= s.end()+eps
}

// attribution accumulates per-layer totals over many requests, keyed by
// span name. Times are seconds.
type attribution struct {
	requests int
	rootWall float64            // Σ root durations
	self     map[string]float64 // Σ self time
	busy     map[string]float64 // Σ durations
	share    map[string]float64 // Σ wall share
	orphans  int
	queue    float64 // Σ (serve.compute start − serve.cache start)
}

func newAttribution() *attribution {
	return &attribution{self: map[string]float64{}, busy: map[string]float64{}, share: map[string]float64{}}
}

// addJSONL parses a stream of span blocks and attributes each request.
func (a *attribution) addJSONL(data []byte) error {
	var block []spanRec
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		err := a.add(block)
		block = block[:0]
		return err
	}
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var s spanRec
		if err := json.Unmarshal(line, &s); err != nil {
			return fmt.Errorf("decode span: %w", err)
		}
		if s.Parent == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		block = append(block, s)
	}
	return flush()
}

// add attributes the spans of one request.
func (a *attribution) add(spans []spanRec) error {
	byID := make(map[int64]*spanRec, len(spans))
	var root *spanRec
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent == 0 {
			if root != nil {
				return fmt.Errorf("span block with two roots (%d and %d)", root.ID, s.ID)
			}
			root = s
		}
	}
	if root == nil {
		return fmt.Errorf("span block without a root")
	}
	a.requests++
	a.rootWall += root.Dur

	// Effective parents: the nearest declared ancestor enclosing the span.
	parent := make(map[*spanRec]*spanRec, len(spans))
	children := make(map[*spanRec][]*spanRec, len(spans))
	for i := range spans {
		s := &spans[i]
		if s == root {
			continue
		}
		p := byID[s.Parent]
		for p != nil && p != root && !p.encloses(s) {
			p = byID[p.Parent]
		}
		if p == nil {
			p = root
		}
		if p.ID != s.Parent {
			a.orphans++
		}
		parent[s] = p
		children[p] = append(children[p], s)
	}

	var cacheStart, computeStart float64
	haveCache, haveCompute := false, false
	for i := range spans {
		s := &spans[i]
		a.busy[s.Name] += s.Dur
		a.self[s.Name] += s.Dur - unionWithin(s, children[s])
		switch s.Name {
		case "serve.cache":
			if !haveCache {
				cacheStart, haveCache = s.Start, true
			}
		case "serve.compute":
			if !haveCompute {
				computeStart, haveCompute = s.Start, true
			}
		}
	}
	if haveCache && haveCompute && computeStart > cacheStart {
		a.queue += computeStart - cacheStart
	}
	a.wallShares(spans, root, parent)
	return nil
}

// unionWithin returns the length of the union of cs's intervals clipped
// to s.
func unionWithin(s *spanRec, cs []*spanRec) float64 {
	if len(cs) == 0 {
		return 0
	}
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.Start, s.Start), min(c.end(), s.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi float64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// wallShares sweeps the root interval, splitting each elementary
// interval equally among the open spans that have no open child.
func (a *attribution) wallShares(spans []spanRec, root *spanRec, parent map[*spanRec]*spanRec) {
	type event struct {
		t    float64
		open bool
		s    *spanRec
	}
	events := make([]event, 0, 2*len(spans))
	for i := range spans {
		s := &spans[i]
		lo, hi := max(s.Start, root.Start), min(s.end(), root.end())
		if s != root && hi <= lo {
			continue
		}
		events = append(events, event{lo, true, s}, event{hi, false, s})
	}
	// At equal times, closes go first; opens in parent-before-child order
	// (a parent starts no later than its child, so by start then ID).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		if events[i].open != events[j].open {
			return !events[i].open
		}
		return events[i].s.ID < events[j].s.ID
	})
	openKids := make(map[*spanRec]int, len(spans))
	open := make(map[*spanRec]bool, len(spans))
	prev := root.Start
	for _, e := range events {
		if dt := e.t - prev; dt > 0 && len(open) > 0 {
			var leaves []*spanRec
			for s := range open {
				if openKids[s] == 0 {
					leaves = append(leaves, s)
				}
			}
			for _, s := range leaves {
				a.share[s.Name] += dt / float64(len(leaves))
			}
		}
		prev = e.t
		p := parent[e.s]
		if e.open {
			open[e.s] = true
			if p != nil {
				openKids[p]++
			}
		} else {
			delete(open, e.s)
			if p != nil {
				openKids[p]--
			}
		}
	}
}
