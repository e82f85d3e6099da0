package sim

// EventScheduler is the scheduling surface the protocol stacks and the
// network emulation program against. The sequential *Engine implements it
// directly; the sharded engine substitutes thin shims (per-shard engine
// views, cross-shard outboxes) so the same transport and link code runs
// unchanged whether a node lives on the single sequential heap or on one
// shard of a partitioned fabric.
//
// The contract matches Engine exactly: Schedule/ScheduleArg are relative
// to Now, At/AtArg are absolute and panic on times in the past, and
// simultaneous events fire in scheduling order. Implementations that
// cross a shard boundary may return a nil *Event — callers that need to
// cancel must therefore tolerate nil handles (Event.Cancel already does).
type EventScheduler interface {
	Now() Time
	Schedule(delay Time, fn func()) *Event
	ScheduleArg(delay Time, fn func(any), arg any) *Event
	At(t Time, fn func()) *Event
	AtArg(t Time, fn func(any), arg any) *Event
}

var _ EventScheduler = (*Engine)(nil)
