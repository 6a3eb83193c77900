// Package deadline bounds the phases of the commit path — a message round, a
// pending call, a submission's budget — without making a context, a runtime
// timer or a Done channel per phase.
//
// An Entry is one deadline, embedded in its owner: a runtime timer made by the
// entry's first arming and reset by every later one, so an entry whose owner
// is pooled makes nothing per use. Each entry keeps a timer of its own, which
// the Go runtime holds per P, so arming, stopping and expiring entries share
// no process-wide lock or goroutine. A Phase is a pooled context.Context on an
// Entry: what context.WithTimeout gives, with nothing made per use once the
// pool is warm.
package deadline

import (
	"sync/atomic"
	"time"
)

// epoch anchors the phases' clock: a deadline is nanoseconds since epoch on
// the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Expirer is an Entry's owner: Expire is called once the entry's deadline
// has passed, on a goroutine of its own, with no lock held. It may come late:
// after the owner stopped the entry, or for an earlier arming of an entry
// the owner has since re-armed. An owner that re-arms its entry (a pooled
// one) tells a late Expire from a current one before acting, as Phase does
// by comparing the time with its own deadline.
type Expirer interface{ Expire() }

// Entry is one deadline. The zero value is disarmed. Every arming of an
// entry must name the same Expirer: the first one makes the timer that
// calls it.
type Entry struct {
	// t is atomic because an Expire that stops its own entry (a
	// submission's verdict) can run before Arm has stored the timer that
	// called it.
	t atomic.Pointer[time.Timer]
}

// Arm sets e to call x.Expire d from now, replacing an earlier arming.
func (e *Entry) Arm(d time.Duration, x Expirer) {
	if t := e.t.Load(); t != nil {
		t.Reset(d)
		return
	}
	e.t.Store(time.AfterFunc(d, x.Expire))
}

// Stop disarms e. An Expire already under way may still run.
func (e *Entry) Stop() {
	if t := e.t.Load(); t != nil {
		t.Stop()
	}
}
