package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Span is one benchmark-side span around a call into a layer's public entry
// point. The program itself is not instrumented by this benchmark; spans
// inside it are a later change.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the tracing overhead is measured: the same calls
// with and without it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (r *recorder) start(name, request string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Request: request, StartNS: now, EndNS: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time — its duration minus the part of
// that interval its children cover — and an error when the spans are not
// well nested: an unclosed span, a child outside its parent, or siblings
// that overlap (every span here is opened and closed by one goroutine).
func selfTimes(spans []Span) (map[int]time.Duration, error) {
	byID := make(map[int]Span, len(spans))
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return nil, fmt.Errorf("span %d %q was never closed", s.ID, s.Name)
		}
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return nil, fmt.Errorf("span %d %q names unknown parent %d", s.ID, s.Name, s.Parent)
			}
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				return nil, fmt.Errorf("span %d %q is not inside its parent %q", s.ID, s.Name, p.Name)
			}
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered := int64(0)
		for i, k := range kids {
			if i > 0 && k.StartNS < kids[i-1].EndNS {
				return nil, fmt.Errorf("spans %q and %q overlap under %q", kids[i-1].Name, k.Name, s.Name)
			}
			covered += k.EndNS - k.StartNS
		}
		self[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self, nil
}
