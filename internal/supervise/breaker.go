package supervise

import "sync"

// The breaker policy. Cooldowns are measured on the caller's step clock
// (simulation steps, or the serving layer's admission ticks), not wall time,
// so breaker behaviour is deterministic for a scripted fault schedule.
const (
	// breakerTrip opens a breaker after this many failures inside
	// breakerWindow steps.
	breakerTrip = 3
	// breakerWindow is the sliding failure-counting window, in steps.
	breakerWindow = 20
	// breakerCooldown is how many steps a freshly opened breaker stays open
	// before probing half-open; it doubles on every reopen up to
	// breakerMaxCooldown.
	breakerCooldown = 8
	// breakerMaxCooldown caps the exponential reopen backoff.
	breakerMaxCooldown = 256
)

// State is a breaker's position in the closed → open → half-open cycle.
type State int

// The breaker states.
const (
	// Closed passes traffic and counts failures.
	Closed State = iota
	// Open rejects traffic until the cooldown elapses.
	Open
	// HalfOpen passes one probe: success closes, failure reopens with a
	// doubled cooldown.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one circuit breaker on the step clock. Not safe for concurrent
// use on its own; BreakerSet adds the locking.
type breaker struct {
	state    State
	fails    []int // steps of recent failures (Closed only)
	openedAt int
	cooldown int // current reopen cooldown, doubles per reopen
}

// sync lazily moves an open breaker whose cooldown has elapsed to half-open.
func (b *breaker) sync(step int) {
	if b.state == Open && step >= b.openedAt+b.cooldown {
		b.state = HalfOpen
	}
}

// State reports the breaker's state as of a step.
func (b *breaker) State(step int) State {
	b.sync(step)
	return b.state
}

// Allow reports whether traffic may pass at a step (closed or half-open).
func (b *breaker) Allow(step int) bool {
	b.sync(step)
	return b.state != Open
}

// Fail records a failure at a step and reports whether it tripped the
// breaker open (including a half-open probe failing back to open).
func (b *breaker) Fail(step int) bool {
	b.sync(step)
	switch b.state {
	case Open:
		return false
	case HalfOpen:
		b.open(step, true)
		return true
	}
	b.fails = append(b.fails, step)
	keep := b.fails[:0]
	for _, s := range b.fails {
		if s > step-breakerWindow {
			keep = append(keep, s)
		}
	}
	b.fails = keep
	if len(b.fails) >= breakerTrip {
		b.open(step, false)
		return true
	}
	return false
}

// OK records a success at a step; a half-open probe succeeding closes the
// breaker and resets its backoff.
func (b *breaker) OK(step int) {
	b.sync(step)
	if b.state == HalfOpen {
		b.state = Closed
		b.cooldown = 0
		b.fails = nil
	}
}

func (b *breaker) open(step int, reopen bool) {
	b.state = Open
	b.openedAt = step
	b.fails = nil
	if reopen {
		b.cooldown *= 2
		if b.cooldown > breakerMaxCooldown {
			b.cooldown = breakerMaxCooldown
		}
	} else {
		b.cooldown = breakerCooldown
	}
}

// BreakerSet is a concurrency-safe registry of breakers keyed by scope
// ("wine2", "mdg/board2", "link 1-0", ...). Breakers are created on first
// failure; Drop retires a scope whose component has been quarantined so it
// no longer gates dispatch.
type BreakerSet struct {
	mu    sync.Mutex
	m     map[string]*breaker
	order []string
	trips int
}

// NewBreakerSet builds an empty set.
func NewBreakerSet() *BreakerSet {
	return &BreakerSet{m: make(map[string]*breaker)}
}

// Fail records a failure against a scope and reports whether it tripped the
// scope's breaker open.
func (s *BreakerSet) Fail(scope string, step int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[scope]
	if b == nil {
		b = &breaker{}
		s.m[scope] = b
		s.order = append(s.order, scope)
	}
	tripped := b.Fail(step)
	if tripped {
		s.trips++
	}
	return tripped
}

// OK records a successful step on every live breaker, closing half-open ones.
func (s *BreakerSet) OK(step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.m {
		b.OK(step)
	}
}

// Allow reports whether traffic may pass for one scope at a step. A scope
// with no recorded failure always passes.
func (s *BreakerSet) Allow(scope string, step int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[scope]
	return b == nil || b.Allow(step)
}

// OKScope records a success for one scope only, closing its half-open probe.
// Unlike hardware boards sharing a step clock (OK), the serving layer's
// tenants succeed and fail independently, so a success must not close another
// tenant's probe.
func (s *BreakerSet) OKScope(scope string, step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.m[scope]; b != nil {
		b.OK(step)
	}
}

// States snapshots every live breaker's state at a step, keyed by scope.
func (s *BreakerSet) States(step int) map[string]State {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]State, len(s.m))
	for scope, b := range s.m {
		out[scope] = b.State(step)
	}
	return out
}

// FirstOpen returns the first registered scope whose breaker rejects traffic
// at a step, in registration order (deterministic for a scripted schedule).
func (s *BreakerSet) FirstOpen(step int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, scope := range s.order {
		if b := s.m[scope]; b != nil && !b.Allow(step) {
			return scope, true
		}
	}
	return "", false
}

// Drop retires a scope: its component has been quarantined (re-striped away),
// so its breaker must not keep rejecting a stripe that no longer includes it.
func (s *BreakerSet) Drop(scope string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[scope]; ok {
		delete(s.m, scope)
		keep := s.order[:0]
		for _, sc := range s.order {
			if sc != scope {
				keep = append(keep, sc)
			}
		}
		s.order = keep
	}
}

// Trips returns the total number of breaker openings, including breakers
// since retired by Drop.
func (s *BreakerSet) Trips() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trips
}
