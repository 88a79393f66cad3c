package cluster

import "sync"

// Plane is a keyed single-flight table with done-memory: TryStart
// claims a key for exactly one worker; concurrent claimants are told to
// stand down. Finish with completed=true remembers the key so later
// claims also stand down (the client repairs each (key, epoch) once);
// completed=false releases the key for a future attempt (the replay
// engine's backfill of a missed key). The done set is bounded: when it
// outgrows cap it is reset wholesale — the cost of forgetting is only a
// redundant repair, never a correctness issue.
type Plane struct {
	mu       sync.Mutex
	inflight map[string]struct{}
	done     map[string]struct{}
	cap      int
}

// NewPlane builds a plane whose done-memory holds up to doneCap keys
// (<= 0 picks a default of 4096).
func NewPlane(doneCap int) *Plane {
	if doneCap <= 0 {
		doneCap = 4096
	}
	return &Plane{
		inflight: make(map[string]struct{}),
		done:     make(map[string]struct{}),
		cap:      doneCap,
	}
}

// TryStart claims key. It returns false when the key is already in
// flight or already completed.
func (p *Plane) TryStart(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.done[key]; ok {
		return false
	}
	if _, ok := p.inflight[key]; ok {
		return false
	}
	p.inflight[key] = struct{}{}
	return true
}

// Finish releases a claim made by TryStart. completed=true records the
// key in done-memory so future claims stand down too.
func (p *Plane) Finish(key string, completed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inflight, key)
	if completed {
		if len(p.done) >= p.cap {
			p.done = make(map[string]struct{})
		}
		p.done[key] = struct{}{}
	}
}

// InFlight returns the number of keys currently claimed.
func (p *Plane) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inflight)
}
