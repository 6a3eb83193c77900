package deadline

import (
	"context"
	"sync"
	"time"
)

// Phase is a pooled context.Context bounded by a deadline on its Entry: what
// context.WithTimeout gives, for one phase of work with one owner. Start
// takes one from the pool and arms it; its Done closes when the deadline
// passes (Err is context.DeadlineExceeded), when the parent is done (Err is
// the parent's), or at Cancel (Err is context.Canceled). End, called by the
// owner once nobody uses the phase any more, stops its timer and pools
// it — with its Done channel, unless something closed that channel.
//
// A Phase is a parent like any other context. A child Phase registers with
// it directly, and a standard child (context.WithCancel and the like) through
// its AfterFunc method, so neither starts a goroutine.
//
// Nothing may use a phase after End: not its owner, not a goroutine it
// handed the phase to, not a child. A goroutine still blocked on Done when
// End runs is released (Done closes); one that has not yet blocked is a use
// after End.
type Phase struct {
	t      Entry
	parent context.Context
	when   int64       // the deadline on the clock of now(); written under mu
	unhook func() bool // stops the parent's notification, for a standard parent
	up     *Phase      // the parent phase this one is registered with
	upGen  uint64      // up's generation at registration

	mu sync.Mutex
	// done is made once and kept across uses while it stays open; handed
	// records that Done gave it out in this use, so finishing must close it.
	done   chan struct{}
	handed bool
	err    error
	// gen counts the phase's uses. A late notice for an earlier use from a
	// parent, phase or standard, carries that use's gen and is dropped; a
	// late expiry finds a later deadline (phaseExpiry).
	gen  uint64
	kids []kid  // notified when the phase finishes
	ids  uint64 // the last AfterFunc registration's id
	// std records that a standard child registered through AfterFunc. Its
	// callback reads Err and the parent (for the cause) whenever it runs,
	// which may be after End, so End leaves such a phase as it is and never
	// pools it: Err stays set and the parent stays put.
	std bool
}

// kid is one registration for the phase's end: a child phase, or the
// function a standard child's AfterFunc gave, with the id its stop names.
type kid struct {
	p   *Phase
	gen uint64
	f   func()
	id  uint64
}

var phases = sync.Pool{New: func() any { return new(Phase) }}

// closedDone is what Done returns for a phase that finished before anybody
// asked for its channel.
var closedDone = make(chan struct{})

func init() { close(closedDone) }

// Start takes a phase from the pool and arms it to expire d from now, or at
// parent's deadline if that comes first. The caller owns it and must End it.
func Start(parent context.Context, d time.Duration) *Phase {
	p := phases.Get().(*Phase)
	t := now()
	at := t + int64(d)
	pp, _ := parent.(*Phase)
	if pp != nil {
		at = min(at, pp.when)
	} else if dl, ok := parent.Deadline(); ok {
		at = min(at, int64(dl.Sub(epoch)))
	}
	p.mu.Lock()
	p.parent, p.when, p.err, p.handed = parent, at, nil, false
	gen := p.gen
	p.mu.Unlock()
	switch {
	case pp != nil:
		pp.adopt(p, gen)
	case parent.Done() != nil:
		if err := parent.Err(); err != nil {
			p.finish(gen, err)
		} else {
			p.unhook = context.AfterFunc(parent, func() { p.finish(gen, parent.Err()) })
		}
	}
	if at <= t {
		p.finish(gen, context.DeadlineExceeded)
	} else {
		p.t.Arm(time.Duration(at-t), (*phaseExpiry)(p))
	}
	return p
}

// Deadline implements context.Context.
func (p *Phase) Deadline() (time.Time, bool) { return epoch.Add(time.Duration(p.when)), true }

// Done implements context.Context.
func (p *Phase) Done() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil && !p.handed {
		return closedDone
	}
	if p.done == nil {
		p.done = make(chan struct{})
	}
	p.handed = true
	return p.done
}

// Err implements context.Context.
func (p *Phase) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Value implements context.Context: it asks the parent.
func (p *Phase) Value(key any) any { return p.parent.Value(key) }

// AfterFunc arranges for f to run when the phase finishes and returns a
// function that cancels that, reporting whether it did. It is the method
// the context package looks for on a parent, so a standard child of a phase
// is cancelled from here instead of from a goroutine of its own. f runs on
// the goroutine that finishes the phase, or on a new one if the phase has
// already finished. A phase that gave out an AfterFunc is not pooled.
func (p *Phase) AfterFunc(f func()) (stop func() bool) {
	p.mu.Lock()
	p.std = true
	if p.err != nil {
		p.mu.Unlock()
		go f()
		return func() bool { return false }
	}
	p.ids++
	id, gen := p.ids, p.gen
	p.kids = append(p.kids, kid{f: f, id: id})
	p.mu.Unlock()
	return func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.gen == gen && p.unregister(func(k kid) bool { return k.f != nil && k.id == id })
	}
}

// Cancel finishes the phase early: Done closes and Err is context.Canceled.
// The owner still Ends it.
func (p *Phase) Cancel() {
	p.mu.Lock()
	kids := p.finishLocked(context.Canceled)
	p.mu.Unlock()
	notify(kids, context.Canceled)
}

// End ends the phase and pools it. It stops the phase's timer, finishes it
// with context.Canceled if it has not finished — closing Done only if a
// goroutine is blocked on it — and finishes the children still registered.
// A phase that had a standard child is left to the garbage collector
// instead of pooled.
func (p *Phase) End() {
	p.t.Stop()
	if p.unhook != nil {
		p.unhook()
		p.unhook = nil
	}
	if p.up != nil {
		p.up.drop(p, p.upGen)
		p.up = nil
	}
	p.mu.Lock()
	p.gen++
	std := p.std
	var kids []kid
	if p.err == nil {
		p.err = context.Canceled
		kids = p.kids
		if p.handed {
			select {
			case p.done <- struct{}{}: // a waiter: wake it, and any others
				close(p.done)
				p.done = nil
			default:
			}
		}
	} else if p.handed {
		p.done = nil // closed when the phase finished
	}
	p.mu.Unlock()
	if len(kids) > 0 {
		// Nothing else reads kids meanwhile: a finish sees err set, and a
		// child's drop or a stop sees the new gen.
		notify(kids, context.Canceled)
		clear(kids)
		p.mu.Lock()
		p.kids = kids[:0]
		p.mu.Unlock()
	}
	if std {
		return
	}
	p.parent = context.Background()
	phases.Put(p)
}

// phaseExpiry is the Phase as its Entry's Expirer, so that Expire is not in
// the Phase's method set.
type phaseExpiry Phase

// Expire finishes the phase with context.DeadlineExceeded if its current use
// is due: a late call for an earlier use finds a later deadline, or the
// phase pooled with its error set.
func (x *phaseExpiry) Expire() {
	p := (*Phase)(x)
	p.mu.Lock()
	if p.err != nil || now() < p.when {
		p.mu.Unlock()
		return
	}
	kids := p.finishLocked(context.DeadlineExceeded)
	p.mu.Unlock()
	notify(kids, context.DeadlineExceeded)
}

// finish finishes use gen of the phase with err; a call for another use, or
// for a phase already finished, does nothing.
func (p *Phase) finish(gen uint64, err error) {
	p.mu.Lock()
	if p.gen != gen || p.err != nil {
		p.mu.Unlock()
		return
	}
	kids := p.finishLocked(err)
	p.mu.Unlock()
	notify(kids, err)
}

// finishLocked sets err, closes Done if it was handed out, and returns the
// registrations to notify once p.mu is let go. Caller holds p.mu.
func (p *Phase) finishLocked(err error) []kid {
	if p.err != nil {
		return nil
	}
	p.err = err
	if p.handed {
		close(p.done)
	}
	kids := p.kids
	p.kids = nil
	return kids
}

// notify finishes the child phases in kids and runs their functions.
func notify(kids []kid, err error) {
	for _, k := range kids {
		if k.p != nil {
			k.p.finish(k.gen, err)
		} else {
			k.f()
		}
	}
}

// adopt registers child, in its use gen, to finish with p; a p already
// finished finishes it now.
func (p *Phase) adopt(child *Phase, gen uint64) {
	p.mu.Lock()
	if err := p.err; err != nil {
		p.mu.Unlock()
		child.finish(gen, err)
		return
	}
	p.kids = append(p.kids, kid{p: child, gen: gen})
	child.up, child.upGen = p, p.gen
	p.mu.Unlock()
}

// drop removes child's registration, made in p's use gen, if that use is
// still p's.
func (p *Phase) drop(child *Phase, gen uint64) {
	p.mu.Lock()
	if p.gen == gen {
		p.unregister(func(k kid) bool { return k.p == child })
	}
	p.mu.Unlock()
}

// unregister removes the first registration match selects and reports
// whether there was one. Caller holds p.mu.
func (p *Phase) unregister(match func(kid) bool) bool {
	for i, k := range p.kids {
		if match(k) {
			last := len(p.kids) - 1
			p.kids[i] = p.kids[last]
			p.kids[last] = kid{}
			p.kids = p.kids[:last]
			return true
		}
	}
	return false
}
