package ingest

import (
	"sync"

	"mpa/internal/obs"
)

// Event is one server-sent event: a type tag plus a pre-encoded JSON
// payload. Payloads are encoded once by the publisher and shared across
// subscribers, never re-marshaled per connection.
type Event struct {
	Type string // SSE event name: "delta", "rank", ...
	Data []byte // JSON payload (single line)
}

// Hub fans ingest updates out to SSE subscribers. An update is the burst
// of events one ingest publishes, and it is delivered whole or not at
// all. Publish never blocks: each subscriber owns a buffered channel of
// updates, and a subscriber too slow to drain it loses whole updates
// (counted under ingest.stream_dropped) rather than stalling the ingest
// path or other subscribers, and never the tail of one. Updates
// published from one goroutine arrive at every live subscriber in
// publish order — the ordering guarantee the SSE tests pin.
type Hub struct {
	mu   sync.Mutex
	subs map[int]chan []Event
	next int
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{subs: map[int]chan []Event{}} }

// subscriberBuffer is each subscriber's channel buffer, in updates. It
// bounds the updates a slow subscriber can hold back; an update's size
// (a delta per touched network plus the rank event) does not count
// against it.
const subscriberBuffer = 16

// Subscribe registers a subscriber and returns its channel of updates
// plus a cancel function. Cancel is idempotent and closes the channel,
// so range loops over it terminate.
func (h *Hub) Subscribe() (<-chan []Event, func()) {
	ch := make(chan []Event, subscriberBuffer)
	h.mu.Lock()
	id := h.next
	h.next++
	h.subs[id] = ch
	h.mu.Unlock()
	obs.GetGauge("ingest.stream_subscribers").Set(float64(h.Subscribers()))
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, id)
			h.mu.Unlock()
			close(ch)
			obs.GetGauge("ingest.stream_subscribers").Set(float64(h.Subscribers()))
		})
	}
	return ch, cancel
}

// Subscribers returns the live subscriber count. The ingest path uses it
// to skip building events nobody is listening for.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Publish delivers one update, the events in order, to every current
// subscriber. Subscribers share the slice, so the caller must not modify
// it afterwards. A subscriber whose buffer is full drops the update
// instead of blocking the caller.
func (h *Hub) Publish(update ...Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- update:
		default:
			obs.GetCounter("ingest.stream_dropped").Add(1)
		}
	}
}
