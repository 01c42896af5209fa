package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/apram/obs"
)

// Counter is a monotone registry metric. Add is one atomic add —
// wait-free from any goroutine, though layers that care about
// contention register one counter per concern rather than sharing a
// hot one across slots.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry is a name-keyed set of live metrics the serving layers
// register into. Registration (Counter/GaugeFunc/Histogram) happens at
// construction time under a mutex; the returned metric objects are
// what the hot paths touch, and every one of their write paths is
// wait-free. Snapshot walks the registry read-locked — the export
// path, never an operation path.
type Registry struct {
	clock func() uint64

	mu       sync.RWMutex
	counters map[string]*Counter
	funcs    map[string]func() uint64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry whose clock is wall-clock
// nanoseconds since the registry was built (obs.MonotonicClock).
func NewRegistry() *Registry {
	return &Registry{
		clock:    obs.MonotonicClock(),
		counters: map[string]*Counter{},
		funcs:    map[string]func() uint64{},
		hists:    map[string]*Histogram{},
	}
}

// SetClock replaces the sample timestamp source. The serving layers
// call it when they learn the object's backend: on the simulated
// backend they pass the substrate's deterministic step counter (which
// only exists once the object does), which makes exported JSONL series
// byte-identical across identical runs. Call before the registry is
// scraped.
func (r *Registry) SetClock(clock func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if clock != nil {
		r.clock = clock
	}
}

// Now returns the registry clock's current timestamp.
func (r *Registry) Now() uint64 {
	r.mu.RLock()
	c := r.clock
	r.mu.RUnlock()
	return c()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GaugeFunc registers a gauge, the registry's one kind of level: f is
// called at snapshot time, on the export path. It must be safe for concurrent use and
// must not block the slots it observes — reading atomics (queue
// lengths, CrossStats counters, Retained) qualifies. Re-registering a
// name replaces the function.
func (r *Registry) GaugeFunc(name string, f func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = f
}

// Histogram returns the named histogram, creating it with n recording
// slots on first use. A second registration under the same name
// returns the existing histogram; asking for more slots than it has
// panics — that indicates two layers disagree about the slot space.
func (r *Registry) Histogram(name string, n int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(name, n)
		r.hists[name] = h
	} else if h.Slots() < n {
		panic("telemetry: histogram " + name + " re-registered with more slots")
	}
	return h
}

// NamedValue is one counter or gauge reading in a Sample.
type NamedValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// NamedHist is one histogram's merged reading in a Sample.
type NamedHist struct {
	Name string `json:"name"`
	HistSnapshot
}

// Sample is one point-in-time reading of every registered metric,
// with each section sorted by name — the deterministic order every
// exporter emits in.
type Sample struct {
	// Time is the registry clock's reading when the sample was taken.
	Time uint64 `json:"t"`
	// Counters, Gauges and Hists hold the metric readings, each sorted
	// by name.
	Counters []NamedValue `json:"counters,omitempty"`
	Gauges   []NamedValue `json:"gauges,omitempty"`
	Hists    []NamedHist  `json:"hists,omitempty"`
}

// Snapshot reads every metric once. It takes the registry read lock
// (against registration, not against recording) and calls the
// pull-style gauge functions; recording paths are never blocked.
func (r *Registry) Snapshot() Sample {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Sample{Time: r.clock()}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: c.Value()})
	}
	for name, f := range r.funcs {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: f()})
	}
	for name, h := range r.hists {
		s.Hists = append(s.Hists, NamedHist{Name: name, HistSnapshot: h.Snapshot()})
	}
	sortNamed(s.Counters)
	sortNamed(s.Gauges)
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

func sortNamed(vs []NamedValue) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Name < vs[j].Name })
}
