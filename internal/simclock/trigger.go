package simclock

// Trigger is a one-shot rendezvous: any number of continuations wait
// on it (WaitThen); Fire releases all current and future waiters. It
// is the simulated analogue of closing a channel.
//
// Fire releases the waiters in registration order, each in its own
// event at the firing instant.
//
// Like the Sim it is bound to, a Trigger is unlocked: all calls happen
// on the one goroutine that runs the simulation (see the Sim doc), so
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
	w0    func()    // first waiter, inline
	cb0   func()    // first OnFire callback, inline
	more  *overflow // second and later waiters and callbacks, rare
}

// overflow holds a Trigger's second and later registrations. It sits
// behind a pointer so the common one-waiter, one-callback trigger stays
// small: most triggers are embedded in an owner that lives as long as
// a job, and the two slices would double their size.
type overflow struct {
	waiters   []func()
	callbacks []func()
}

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
	if t.w0 != nil {
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

// Fire releases all waiters at the current virtual time, then runs the
// OnFire callbacks inline. It is idempotent.
func (t *Trigger) Fire() {
	if t.fired {
		return
	}
	t.fired = true
	w0, cb0, more := t.w0, t.cb0, t.more
	t.w0, t.cb0, t.more = nil, nil, nil
	if w0 != nil {
		t.s.schedule(0, w0)
	}
	if more != nil {
		for _, w := range more.waiters {
			t.s.schedule(0, w)
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
func (t *Trigger) addWaiter(w func()) {
	if t.w0 == nil {
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

// WaitThen runs cont once the trigger fires. If the trigger already
// fired, cont runs inline; otherwise cont joins the FIFO waiter list
// and is dispatched in its own event at the firing instant, in
// registration order.
func (t *Trigger) WaitThen(cont func()) {
	if t.fired {
		cont()
		return
	}
	t.addWaiter(cont)
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
