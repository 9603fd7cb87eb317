package telemetry

// Ring is a bounded event buffer: the collector keeps one per device so a
// fleet-wide stream stays bounded no matter how long a convergence storm
// runs. Storage grows on demand (by append) until it holds capacity
// events, so a device that emits a handful of events costs a handful of
// slots, not the whole capacity; once full, the oldest events are
// overwritten first. Not safe
// for concurrent use; the collector serializes access.
type Ring struct {
	buf     []Event
	limit   int // capacity: the most events ever held
	next    int // index of the next write once full
	wrapped bool
	total   uint64
}

// NewRing returns a ring holding up to capacity events (values <= 0 get a
// default of 4096). No event storage is allocated until the first Push.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{limit: capacity}
}

// Push appends an event, evicting the oldest when full.
func (r *Ring) Push(ev Event) {
	r.total++
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, ev)
		r.next = len(r.buf) % r.limit
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % r.limit
	r.wrapped = true
}

// Len reports how many events are currently buffered.
func (r *Ring) Len() int { return len(r.buf) }

// Total reports how many events were ever pushed (including evicted ones).
func (r *Ring) Total() uint64 { return r.total }

// Dropped reports how many events were evicted to make room.
func (r *Ring) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// Snapshot copies the buffered events in arrival order, oldest first.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}
