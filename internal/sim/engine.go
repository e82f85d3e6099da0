package sim

// Event is a scheduled callback. Events are created by Engine.Schedule,
// Engine.At and their arg-carrying variants, and may be cancelled before
// they fire. An Event must not be used after it has fired or been
// cancelled: the engine recycles fired and discarded events through an
// internal free list, so a stale handle may alias a completely unrelated
// future event.
type Event struct {
	eng *Engine
	at  Time
	seq uint64

	// Exactly one of fn / fnArg is set. The arg-carrying form exists so
	// hot paths (retransmit timers re-armed per ACK, per-packet link
	// events) can schedule a long-lived callback plus a value instead of
	// allocating a fresh closure per event.
	fn    func()
	fnArg func(any)
	arg   any

	cancelled bool
	fired     bool
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op.
func (ev *Event) Cancel() {
	if ev == nil || ev.cancelled || ev.fired {
		return
	}
	ev.cancelled = true
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	if ev.eng != nil {
		ev.eng.noteCancelled()
	}
}

// Pending reports whether the event is still scheduled to fire.
func (ev *Event) Pending() bool {
	return ev != nil && !ev.cancelled && !ev.fired
}

// compactFloor is the minimum heap size below which cancelled events are
// simply left to be discarded lazily: compaction of a tiny heap saves
// nothing and would only add overhead to short runs.
const compactFloor = 64

// Engine is a single-threaded discrete-event simulator. The zero value is
// not ready for use; call NewEngine.
type Engine struct {
	now       Time
	heap      []*Event
	seq       uint64
	processed uint64
	cancelled int // cancelled events still sitting in the heap
	stopped   bool

	// free recycles fired and discarded events so steady-state scheduling
	// does not allocate. Events enter it from the run loop (after firing
	// or lazy discard of a cancellation) and from compact.
	free []*Event

	// interrupt, when set, is polled every interruptEvery processed
	// events by RunUntil; returning true stops the run (see
	// SetInterrupt).
	interrupt      func() bool
	interruptEvery uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{heap: make([]*Event, 0, 1024)}
}

// MaxTime is the largest representable virtual time. PeekTime returns it
// for an empty queue, and RunUntil treats it as "run to exhaustion".
const MaxTime = Time(1<<63 - 1)

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// PeekTime returns the timestamp of the earliest live event, or MaxTime
// when no live events are pending. Cancelled events sitting at the head
// of the heap are discarded on the way — a stale cancelled timer must not
// masquerade as the next event time, or the sharded coordinator's window
// computation (and AdvanceTo's past-event check) would trip on it.
func (e *Engine) PeekTime() Time {
	for len(e.heap) > 0 {
		ev := e.heap[0]
		if !ev.cancelled {
			return ev.at
		}
		e.pop()
		e.cancelled--
		e.recycle(ev)
	}
	return MaxTime
}

// AdvanceTo raises the clock to t without executing anything. It is the
// conservative-window barrier primitive: after a shard has drained its
// events below the window edge, the coordinator advances every shard
// clock to the barrier time so control-plane callbacks observing Now()
// on paused shards read the barrier instant, not a stale event time.
// Advancing past a pending live event panics — that would reorder it
// into the past.
func (e *Engine) AdvanceTo(t Time) {
	if head := e.PeekTime(); head < t {
		panic("sim: AdvanceTo past a pending event")
	}
	if t > e.now {
		e.now = t
	}
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events currently scheduled. Cancelled
// events awaiting discard are not counted.
func (e *Engine) Pending() int { return len(e.heap) - e.cancelled }

// SetInterrupt installs a poll function checked every `every` processed
// events during RunUntil; if it returns true the run stops as if Stop had
// been called. Passing a nil fn (or every == 0) removes the hook. Run can
// be resumed afterwards, so this composes with external cancellation
// (e.g. a context) without poisoning the engine.
func (e *Engine) SetInterrupt(every uint64, fn func() bool) {
	if fn == nil || every == 0 {
		e.interrupt, e.interruptEvery = nil, 0
		return
	}
	e.interrupt, e.interruptEvery = fn, every
}

// Schedule runs fn after delay. A negative delay is treated as zero.
// Events scheduled for the same instant fire in scheduling order.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// ScheduleArg runs fn(arg) after delay. It is Schedule for hot paths: the
// callback is typically a long-lived func value (created once per timer,
// link or endpoint) and the per-event state rides in arg, so re-arming
// does not allocate a closure.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.AtArg(e.now+delay, fn, arg)
}

// At runs fn at absolute time t. Scheduling in the past panics: it is
// always a logic error in the protocol stacks built on this engine.
func (e *Engine) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc(t)
	ev.fn = fn
	e.push(ev)
	return ev
}

// AtArg runs fn(arg) at absolute time t (the arg-carrying At).
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc(t)
	ev.fnArg = fn
	ev.arg = arg
	e.push(ev)
	return ev
}

// AtArgKeyed is AtArg with an explicit tie-breaking key in place of the
// insertion sequence. The sharded coordinator uses it to give committed
// cross-shard deliveries an ordering that is intrinsic to the sending
// shard's execution (source shard, send order) rather than to the
// barrier at which the commit happened: barrier placement depends on
// the synchronization policy, and a policy-dependent tie-break would
// make same-nanosecond event order — and hence queue dynamics — depend
// on where the coordinator happened to place a barrier. Callers must
// supply keys above any insertion sequence the engine can reach (the
// coordinator sets the top bit), so keyed events sort after same-time
// locally scheduled ones.
func (e *Engine) AtArgKeyed(t Time, fn func(any), arg any, key uint64) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc(t)
	ev.seq = key
	ev.fnArg = fn
	ev.arg = arg
	e.push(ev)
	return ev
}

// alloc returns a blank event at time t, reusing the free list when
// possible.
func (e *Engine) alloc(t Time) *Event {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.cancelled = false
		ev.fired = false
	} else {
		ev = &Event{}
	}
	ev.eng = e
	ev.at = t
	ev.seq = e.seq
	return ev
}

// recycle returns a fired or discarded event to the free list. The
// fired/cancelled flags are deliberately left set until reuse so that a
// stale handle held in violation of the contract still reads as inert.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state — clock at zero, no
// pending events, all counters cleared, no interrupt hook — while keeping
// the allocated capacity (heap backing array and event free list), so a
// pooled engine's steady-state reuse allocates nothing. Pending events
// are discarded without firing; their handles read as cancelled. This is
// the sim half of the run-instance pooling contract: after Reset the
// engine is observationally identical to NewEngine() output.
func (e *Engine) Reset() {
	for i, ev := range e.heap {
		ev.cancelled = true
		e.recycle(ev)
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.cancelled = 0
	e.stopped = false
	e.interrupt = nil
	e.interruptEvery = 0
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= limit, then sets the clock
// to limit (or leaves it at the last event time if that is later, which
// cannot happen by construction). Cancelled events are discarded without
// being counted as processed.
func (e *Engine) RunUntil(limit Time) {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 {
		ev := e.heap[0]
		if ev.at > limit {
			break
		}
		e.pop()
		if ev.cancelled {
			e.cancelled--
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		ev.fired = true
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		e.processed++
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		e.recycle(ev)
		if e.interrupt != nil && e.processed%e.interruptEvery == 0 && e.interrupt() {
			e.stopped = true
		}
	}
	if !e.stopped && e.now < limit && limit < MaxTime {
		e.now = limit
	}
}

// Step executes exactly one non-cancelled event, if any, and reports
// whether one was executed.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := e.heap[0]
		e.pop()
		if ev.cancelled {
			e.cancelled--
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		ev.fired = true
		fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
		e.processed++
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		e.recycle(ev)
		return true
	}
	return false
}

// noteCancelled records an in-heap cancellation and compacts the heap once
// cancelled events outnumber live ones. Without this, a cancelled event
// occupies its heap slot (pinning its closure) until its timestamp is
// reached — for long-lived retransmit timers that are armed and re-armed
// on every ACK, the dead entries dominate the queue of a big run.
func (e *Engine) noteCancelled() {
	e.cancelled++
	if len(e.heap) >= compactFloor && e.cancelled > len(e.heap)/2 {
		e.compact()
	}
}

// compact removes every cancelled event from the heap (returning them to
// the free list) and restores the heap invariant. O(n), amortised against
// the >n/2 cancellations that triggered it.
func (e *Engine) compact() {
	kept := e.heap[:0]
	for _, ev := range e.heap {
		if !ev.cancelled {
			kept = append(kept, ev)
		} else {
			e.recycle(ev)
		}
	}
	// Clear the tail so dropped slots hold no stale references.
	for i := len(kept); i < len(e.heap); i++ {
		e.heap[i] = nil
	}
	e.heap = kept
	e.cancelled = 0
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// trimFloor is the smallest heap capacity maybeTrim bothers shrinking:
// below this the memory is trivial and trimming would only churn.
const trimFloor = 4 * compactFloor

// maybeTrim releases excess queue memory after a burst: when the live
// heap has shrunk below a quarter of its capacity, the backing array is
// reallocated at half size (geometric, so repeated trims cost amortised
// O(1) per pop). Without this a Step- or RunUntil-driven loop that once
// held a million events pins that footprint forever — compact only
// removes cancelled entries, it never shrinks capacity. The free list is
// bounded alongside, since pooled events are the same retired burst.
func (e *Engine) maybeTrim() {
	c := cap(e.heap)
	if c < trimFloor || len(e.heap) >= c/4 {
		return
	}
	heap := make([]*Event, len(e.heap), c/2)
	copy(heap, e.heap)
	e.heap = heap
	if len(e.free) > c/2 {
		free := make([]*Event, c/2)
		copy(free, e.free[:c/2])
		e.free = free
	}
}

// less orders events by time, breaking ties by insertion sequence so that
// simultaneous events fire deterministically in scheduling order.
// Keyed events (AtArgKeyed) carry an explicit key in the sequence slot
// and sort among same-time events by that key instead.
func (e *Engine) less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *Event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
	e.maybeTrim()
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && e.less(e.heap[l], e.heap[smallest]) {
			smallest = l
		}
		if r < n && e.less(e.heap[r], e.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		e.heap[i], e.heap[smallest] = e.heap[smallest], e.heap[i]
		i = smallest
	}
}
