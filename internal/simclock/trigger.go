package simclock

// Trigger is a one-shot rendezvous for simulation processes: any number
// of processes Wait on it; Fire releases all current and future
// waiters. It is the simulated analogue of closing a channel.
//
// Waiters come in two shapes sharing one FIFO list: suspended processes
// (Wait) and continuations (WaitThen). Fire releases them in
// registration order regardless of shape, each in its own event at the
// firing instant.
//
// Like the Sim it is bound to, a Trigger is unlocked: all calls happen
// on the single active logical thread (see the Sim doc comment), so
// its state needs no mutex. This keeps Fire — the busiest rendezvous
// primitive in the hot loop — a plain slice walk.
//
// Busy simulations create one trigger per job lifecycle edge — tens of
// millions per large replay — and the overwhelmingly common shape is
// "one waiter, one callback". The layout leans into that: the first
// waiter and the first callback live inline (w0/cb0) so a typical
// trigger needs no slice allocations at all. A trigger with a fixed
// owner lives inside it (see InitTrigger), so it costs no allocation of
// its own either.
//
// A callback or waiter holds whatever it closes over until the trigger
// fires. A registration made for one scheduling attempt must therefore
// never land on a trigger that outlives the attempt (an agent's
// Released, a job's abort): it would pin the attempt's whole state for
// the trigger's lifetime. Such owners keep a list of current attempts
// and notify it from one registration of their own.
type Trigger struct {
	s     *Sim
	fired bool
	w0    waiter    // first waiter, inline
	cb0   func()    // first OnFire callback, inline
	more  *overflow // second and later waiters and callbacks, rare
}

// overflow holds a Trigger's second and later registrations. It sits
// behind a pointer so the common one-waiter, one-callback trigger stays
// small: most triggers are embedded in an owner that lives as long as
// a job, and the two slices would double their size.
type overflow struct {
	waiters   []waiter
	callbacks []func()
}

// waiter is one entry in a Trigger's FIFO wait list: a suspended
// process (p != nil) or a continuation (fn != nil).
type waiter struct {
	p  *proc
	fn func()
}

func (w waiter) empty() bool { return w.p == nil && w.fn == nil }

// NewTrigger returns an unfired Trigger bound to s, in an allocation of
// its own. A trigger whose owner is fixed — a handle, a scheduling
// attempt, a run — is a field of the owner instead, bound by
// InitTrigger, so one allocation carries the owner and all its
// triggers.
//
// There is no trigger pool or slab: a bump-allocation slab variant cut
// allocator calls 256-fold but pinned every slab until its last
// trigger died, and the resident-set growth cost more in page faults
// than the allocator savings on small hosts.
func (s *Sim) NewTrigger() *Trigger { return &Trigger{s: s} }

// InitTrigger binds t, a Trigger embedded in its owner, to s as an
// unfired trigger. It must be called before t is used and while
// nothing waits on it.
func (s *Sim) InitTrigger(t *Trigger) { *t = Trigger{s: s} }

// Fired reports whether Fire has been called.
func (t *Trigger) Fired() bool {
	return t.fired
}

// Registered reports how many waiters and callbacks wait for the
// trigger to fire: a leak check's view of what the trigger keeps alive.
func (t *Trigger) Registered() int {
	n := 0
	if !t.w0.empty() {
		n++
	}
	if t.cb0 != nil {
		n++
	}
	if t.more != nil {
		n += len(t.more.waiters) + len(t.more.callbacks)
	}
	return n
}

// Fire releases all waiting processes at the current virtual time. It
// is idempotent. It may be called from an event or a process.
func (t *Trigger) Fire() {
	if t.fired {
		return
	}
	t.fired = true
	w0, cb0, more := t.w0, t.cb0, t.more
	t.w0, t.cb0, t.more = waiter{}, nil, nil
	if !w0.empty() {
		t.s.schedule(0, w0.fn, w0.p)
	}
	if more != nil {
		for _, w := range more.waiters {
			t.s.schedule(0, w.fn, w.p)
		}
	}
	if cb0 != nil {
		cb0()
	}
	if more != nil {
		for _, fn := range more.callbacks {
			fn()
		}
	}
}

// overflow returns t's overflow lists, creating them on first use.
func (t *Trigger) overflow() *overflow {
	if t.more == nil {
		t.more = new(overflow)
	}
	return t.more
}

// addWaiter appends to the FIFO wait list, filling the inline slot
// first.
func (t *Trigger) addWaiter(w waiter) {
	if t.w0.empty() {
		t.w0 = w
		return
	}
	o := t.overflow()
	o.waiters = append(o.waiters, w)
}

// OnFire registers fn to run when the trigger fires; if it has already
// fired, fn runs immediately. Callbacks run inline in the firing
// context and must be short and non-blocking.
func (t *Trigger) OnFire(fn func()) {
	if t.fired {
		fn()
		return
	}
	if t.cb0 == nil {
		t.cb0 = fn
		return
	}
	o := t.overflow()
	o.callbacks = append(o.callbacks, fn)
}

// Wait suspends the calling process until the trigger fires. It
// returns immediately if the trigger already fired. Must be called
// from a process started with Sim.Go.
func (t *Trigger) Wait() {
	p := t.s.currentProc()
	if t.fired {
		return
	}
	t.addWaiter(waiter{p: p})
	p.yield <- struct{}{}
	<-p.wake
}

// WaitThen runs cont once the trigger fires. If the trigger already
// fired, cont runs inline (matching Wait's immediate return);
// otherwise cont joins the same FIFO waiter list as suspended
// processes and is dispatched in its own event at the firing instant,
// in registration order.
func (t *Trigger) WaitThen(cont func()) {
	if t.fired {
		cont()
		return
	}
	t.addWaiter(waiter{fn: cont})
}

// WaitAny runs cont once the first of ts fires, through w: w fires at
// that instant and cont is its waiter, exactly as WaitThen (inline if
// one of ts has already fired). w.Fire is bound once for all
// registrations, which are made in the order of ts. A source that is not
// a Trigger registers w itself before calling WaitAny.
func (w *Trigger) WaitAny(cont func(), ts ...*Trigger) {
	fire := w.Fire
	for _, t := range ts {
		t.OnFire(fire)
	}
	w.WaitThen(cont)
}

// Queue is an unbounded FIFO communication channel between simulation
// processes: Put never blocks, Get suspends the calling process until
// an item is available. It is the simulated analogue of a buffered
// channel with infinite capacity. Unlocked, like Trigger.
type Queue struct {
	s       *Sim
	items   []any
	waiters []*proc
	closed  bool
}

// NewQueue returns an empty queue bound to s.
func (s *Sim) NewQueue() *Queue { return &Queue{s: s} }

// Put appends v and wakes one waiting process, if any. Put on a closed
// queue panics.
func (q *Queue) Put(v any) {
	if q.closed {
		panic("simclock: Put on closed Queue")
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.s.schedule(0, nil, p)
	}
}

// Close marks the queue closed and wakes all waiters; subsequent Gets
// drain remaining items and then report ok=false.
func (q *Queue) Close() {
	q.closed = true
	ws := q.waiters
	q.waiters = nil
	for _, p := range ws {
		q.s.schedule(0, nil, p)
	}
}

// Len reports the number of queued items.
func (q *Queue) Len() int {
	return len(q.items)
}

// Get removes and returns the oldest item, suspending the calling
// process while the queue is empty. ok is false when the queue is
// closed and drained. Must be called from a process started with
// Sim.Go.
func (q *Queue) Get() (v any, ok bool) {
	for {
		if len(q.items) > 0 {
			v = q.items[0]
			q.items = q.items[1:]
			return v, true
		}
		if q.closed {
			return nil, false
		}
		p := q.s.cur
		if p == nil {
			panic("simclock: Get called outside a Sim process; use Sim.Go")
		}
		q.waiters = append(q.waiters, p)
		p.yield <- struct{}{}
		<-p.wake
	}
}
