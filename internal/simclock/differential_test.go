package simclock

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"
)

// The engine differential test runs one seeded random program on the
// Sim and on refEngine, a naive reference that keeps every pending
// event in a slice and dispatches the least (time, seq) by a linear
// scan, and requires the same log from both: which event ran at which
// virtual instant, what every Stop returned, where each RunUntil left
// the clock and how many events were pending there.

// engine is what a program drives; both implementations satisfy it.
type engine interface {
	Now() time.Time
	AfterFunc(d time.Duration, fn func()) stopper
	Post(fn func())
	RunUntil(t time.Time) time.Time
	Run() time.Time
	Pending() int
	trigger() trigger
}

// stopper is the part of Timer a program drives.
type stopper interface{ Stop() bool }

// trigger is the part of Trigger a program drives.
type trigger interface {
	Fire()
	WaitThen(cont func())
	WaitAny(cont func(), ts ...trigger)
}

type simEngine struct{ *Sim }

func (e simEngine) AfterFunc(d time.Duration, fn func()) stopper { return e.Sim.AfterFunc(d, fn) }

func (e simEngine) trigger() trigger { return simTrigger{e.NewTrigger()} }

type simTrigger struct{ *Trigger }

func (t simTrigger) WaitAny(cont func(), ts ...trigger) {
	src := make([]*Trigger, len(ts))
	for i, s := range ts {
		src[i] = s.(simTrigger).Trigger
	}
	t.Trigger.WaitAny(cont, src...)
}

// refEngine is the reference: the documented semantics, written
// plainly.
type refEngine struct {
	now     time.Time
	seq     int64
	pending []*refEvent
	firing  *refEvent
}

type refEvent struct {
	at       time.Time
	seq      int64
	fn       func()
	canceled bool
	done     bool
}

func (r *refEngine) Now() time.Time { return r.now }

func (r *refEngine) schedule(d time.Duration, fn func()) *refEvent {
	e := &refEvent{at: r.now.Add(max(d, 0)), seq: r.seq, fn: fn}
	r.seq++
	r.pending = append(r.pending, e)
	return e
}

func (r *refEngine) AfterFunc(d time.Duration, fn func()) stopper {
	return refTimer{r, r.schedule(d, fn)}
}

func (r *refEngine) Post(fn func()) { r.schedule(0, fn) }

type refTimer struct {
	r *refEngine
	e *refEvent
}

func (t refTimer) Stop() bool {
	if t.e.done || t.e.canceled || t.e == t.r.firing {
		return false
	}
	t.e.canceled = true
	return true
}

// step dispatches the least pending (at, seq) event not after limit.
func (r *refEngine) step(limit time.Time, hasLimit bool) bool {
	r.pending = slices.DeleteFunc(r.pending, func(e *refEvent) bool { return e.canceled })
	if len(r.pending) == 0 {
		return false
	}
	i := 0
	for j, e := range r.pending {
		if e.at.Before(r.pending[i].at) || e.at.Equal(r.pending[i].at) && e.seq < r.pending[i].seq {
			i = j
		}
	}
	e := r.pending[i]
	if hasLimit && e.at.After(limit) {
		return false
	}
	r.pending = slices.Delete(r.pending, i, i+1)
	r.now, r.firing = e.at, e
	e.fn()
	r.firing, e.done = nil, true
	return true
}

func (r *refEngine) RunUntil(t time.Time) time.Time {
	for r.step(t, true) {
	}
	if t.After(r.now) {
		r.now = t
	}
	return r.now
}

func (r *refEngine) Run() time.Time {
	for r.step(time.Time{}, false) {
	}
	return r.now
}

func (r *refEngine) Pending() int {
	n := 0
	for _, e := range r.pending {
		if !e.canceled {
			n++
		}
	}
	return n
}

func (r *refEngine) trigger() trigger { return &refTrigger{r: r} }

// refTrigger fires by scheduling each waiter as a zero-delay event, in
// registration order, then running the callbacks inline.
type refTrigger struct {
	r         *refEngine
	fired     bool
	waiters   []func()
	callbacks []func()
}

func (t *refTrigger) Fire() {
	if t.fired {
		return
	}
	t.fired = true
	for _, w := range t.waiters {
		t.r.Post(w)
	}
	for _, cb := range t.callbacks {
		cb()
	}
	t.waiters, t.callbacks = nil, nil
}

func (t *refTrigger) onFire(fn func()) {
	if t.fired {
		fn()
		return
	}
	t.callbacks = append(t.callbacks, fn)
}

func (t *refTrigger) WaitThen(cont func()) {
	if t.fired {
		cont()
		return
	}
	t.waiters = append(t.waiters, cont)
}

func (t *refTrigger) WaitAny(cont func(), ts ...trigger) {
	for _, s := range ts {
		s.(*refTrigger).onFire(t.Fire)
	}
	t.WaitThen(cont)
}

// program is one random schedule. Every decision an event makes is
// drawn from a chooser: in TestEngineMatchesReference a generator
// seeded by the program seed and the event's id, and ids are handed out
// in creation order; in FuzzEngineMatchesReference the next byte of the
// fuzz input. Either way the two engines run the same program exactly
// as long as they dispatch in the same order.
type program struct {
	seed   int64
	input  *byteChooser // when set, every decision is read from it
	e      engine
	start  time.Time
	log    []string
	timers []stopper
	burst  []stopper // the last burst, in scheduling order
	trigs  []trigger
	ids    int
}

// chooser draws one decision in [0, n).
type chooser interface{ IntN(n int) int }

// byteChooser reads decisions from fuzz input bytes, then zeros.
type byteChooser struct {
	b []byte
	i int
}

func (c *byteChooser) IntN(n int) int {
	if c.i == len(c.b) {
		return 0
	}
	c.i++
	return int(c.b[c.i-1]) % n
}

// rng returns the chooser for one event's decisions, or for the
// program's top level (stream budget).
func (p *program) rng(stream int) chooser {
	if p.input != nil {
		return p.input
	}
	return rand.New(rand.NewPCG(uint64(p.seed), uint64(stream)))
}

// budget bounds the events a program creates.
const budget = 300

var delays = []time.Duration{0, 0, time.Second, 2 * time.Second, 5 * time.Second}

func (p *program) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

// event returns a new event body with the next id.
func (p *program) event() func() {
	id := p.ids
	p.ids++
	return func() {
		p.logf("run %d @%v", id, p.e.Now().Sub(p.start))
		p.act(p.rng(id), 1+id%3)
	}
}

// act performs n random engine calls from inside an event or from the
// program's top level between runs.
func (p *program) act(rng chooser, n int) {
	for k := 0; k < n; k++ {
		switch op := rng.IntN(10); {
		case op <= 1 && p.ids < budget:
			p.timers = append(p.timers, p.e.AfterFunc(delays[rng.IntN(len(delays))], p.event()))
		case op == 2 && p.ids < budget:
			p.e.Post(p.event())
		case op == 3 && len(p.timers) > 0:
			i := rng.IntN(len(p.timers))
			p.logf("stop %d = %v", i, p.timers[i].Stop())
		case op == 4:
			i := rng.IntN(len(p.trigs))
			p.logf("fire %d", i)
			p.trigs[i].Fire()
		case op == 5 && p.ids < budget:
			p.trigs[rng.IntN(len(p.trigs))].WaitThen(p.event())
		case op == 6 && p.ids < budget:
			w := p.e.trigger()
			var ts []trigger
			for i := 0; i < 1+rng.IntN(3); i++ {
				ts = append(ts, p.trigs[rng.IntN(len(p.trigs))])
			}
			w.WaitAny(p.event(), ts...)
		case op == 7:
			p.trigs = append(p.trigs, p.e.trigger())
		case op == 8 && p.ids < budget:
			// A burst: timers back to back for one future instant, the
			// shape of a refresh sweep or a probe fan-out.
			d := delays[2+rng.IntN(len(delays)-2)]
			p.burst = nil
			for i := 2 + rng.IntN(5); i > 0 && p.ids < budget; i-- {
				p.burst = append(p.burst, p.e.AfterFunc(d, p.event()))
			}
			p.timers = append(p.timers, p.burst...)
		case op == 9 && len(p.burst) > 0:
			// Stop the head, the middle or the tail of the last burst.
			i := [3]int{0, len(p.burst) / 2, len(p.burst) - 1}[rng.IntN(3)]
			p.logf("stop burst %d = %v", i, p.burst[i].Stop())
		}
	}
}

// run drives the program: a few rounds of top-level calls, each followed
// by RunUntil at a limit in the past, at the present instant or in the
// future, then a final Run.
func (p *program) run() string {
	p.start = p.e.Now()
	for i := 0; i < 4; i++ {
		p.trigs = append(p.trigs, p.e.trigger())
	}
	rng := p.rng(budget)
	for round := 0; round < 12; round++ {
		p.act(rng, 4)
		limit := p.e.Now().Add(time.Duration(rng.IntN(9)-2) * time.Second)
		at := p.e.RunUntil(limit)
		p.logf("until %v: at %v pending %d", limit.Sub(p.start), at.Sub(p.start), p.e.Pending())
	}
	end := p.e.Run()
	p.logf("run: at %v pending %d", end.Sub(p.start), p.e.Pending())
	return strings.Join(p.log, "\n")
}

// diverge runs the program newProgram builds on the Sim and on the
// reference, and describes the first log line where they differ; it
// returns "" when the logs are equal.
func diverge(newProgram func(engine) *program) string {
	start := NewSim(time.Time{}).Now()
	got := newProgram(simEngine{NewSim(start)}).run()
	want := newProgram(&refEngine{now: start}).run()
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("the engine diverged from the reference at log line %d:\n  sim:       %q\n  reference: %q",
		i, g[min(i, len(g)-1)], w[min(i, len(w)-1)])
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		if d := diverge(func(e engine) *program { return &program{seed: seed, e: e} }); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// FuzzEngineMatchesReference runs programs whose every op and delay is
// read from the fuzz input.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 3, 4, 9, 0, 9, 2, 1, 1, 8, 0, 2, 9, 2})
	f.Add([]byte{8, 2, 0, 9, 0, 9, 1, 9, 2, 0, 0, 8, 2, 0, 8, 1, 1, 3, 5, 6, 7})
	// A timer at +1s, stopped and reaped by RunUntil(now) before its
	// instant; then a burst of three at +1s, whose first timer reuses
	// the reaped event at that same instant.
	f.Add([]byte{0, 2, 3, 0, 7, 7, 2, 8, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if d := diverge(func(e engine) *program { return &program{input: &byteChooser{b: b}, e: e} }); d != "" {
			t.Fatal(d)
		}
	})
}
