package deadline

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recorder is an Expirer that reports its name on a channel.
type recorder struct {
	name string
	out  chan<- string
}

func (r *recorder) Expire() { r.out <- r.name }

// TestEntryExpiresInDeadlineOrder: entries armed out of order expire in
// deadline order, a stopped one never expires, and a re-armed one expires at
// its new deadline only.
func TestEntryExpiresInDeadlineOrder(t *testing.T) {
	out := make(chan string, 8)
	var es [5]Entry
	rs := make([]*recorder, len(es))
	for i := range rs {
		rs[i] = &recorder{name: string(rune('a' + i)), out: out}
	}
	es[0].Arm(40*time.Millisecond, rs[0])
	es[1].Arm(10*time.Millisecond, rs[1])
	es[2].Arm(30*time.Millisecond, rs[2])
	es[3].Arm(20*time.Millisecond, rs[3])
	es[4].Arm(5*time.Millisecond, rs[4])
	es[2].Stop()
	es[4].Arm(50*time.Millisecond, rs[4]) // moved: not at 5ms
	var got []string
	for range 4 {
		select {
		case n := <-out:
			got = append(got, n)
		case <-time.After(5 * time.Second):
			t.Fatalf("expired %v, want 4 entries", got)
		}
	}
	if want := []string{"b", "d", "a", "e"}; !slices.Equal(got, want) {
		t.Fatalf("expired %v, want %v", got, want)
	}
	select {
	case n := <-out:
		t.Fatalf("stopped entry %s expired", n)
	case <-time.After(20 * time.Millisecond):
	}
}

// waitPast returns once a phase armed for d has expired.
func waitPast(d time.Duration) {
	p := Start(context.Background(), d)
	<-p.Done()
	p.End()
}

// TestPhaseDoneAtDeadline: Done closes at the deadline, Err is
// DeadlineExceeded, and Deadline reports when.
func TestPhaseDoneAtDeadline(t *testing.T) {
	start := time.Now()
	p := Start(context.Background(), 20*time.Millisecond)
	defer p.End()
	if dl, ok := p.Deadline(); !ok || dl.Sub(start) < 20*time.Millisecond || dl.Sub(start) > time.Second {
		t.Fatalf("Deadline = %v, %v; want about %v", dl, ok, start.Add(20*time.Millisecond))
	}
	if err := p.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	<-p.Done()
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("Done closed after %v, before the deadline", took)
	}
	if err := p.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}
	// A standard child of an expired phase is done at once, with its error.
	c, cancel := context.WithCancel(p)
	defer cancel()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("child Err = %v, want DeadlineExceeded", err)
	}
}

// TestPhaseClampedToParentDeadline: a phase under a parent with an earlier
// deadline takes the parent's.
func TestPhaseClampedToParentDeadline(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	p := Start(parent, time.Hour)
	defer p.End()
	want, _ := parent.Deadline()
	if dl, _ := p.Deadline(); dl.Sub(want).Abs() > time.Millisecond {
		t.Fatalf("Deadline = %v, want the parent's %v", dl, want)
	}
	child := Start(p, time.Hour)
	defer child.End()
	<-child.Done()
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}
}

// waitDone blocks on p's Done and then closes woke. Its name is what
// waitBlocked looks for in the goroutine dump.
func waitDone(p *Phase, woke chan<- struct{}) {
	<-p.Done()
	close(woke)
}

// waitBlocked waits until a goroutine is blocked in a channel receive in
// waitDone.
func waitBlocked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for limit := time.Now().Add(5 * time.Second); time.Now().Before(limit); runtime.Gosched() {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "deadline.waitDone") {
				return
			}
		}
	}
	t.Fatal("no goroutine blocked on Done")
}

// TestPhaseDoneAtEndWhileWaiting: End releases a goroutine blocked on Done.
func TestPhaseDoneAtEndWhileWaiting(t *testing.T) {
	p := Start(context.Background(), time.Hour)
	woke := make(chan struct{})
	go waitDone(p, woke)
	waitBlocked(t)
	p.End()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("End did not release the goroutine blocked on Done")
	}
}

// TestPhaseDoneOnParentCancel: Done closes when the parent is cancelled —
// a standard parent, or a phase, whose own expiry reaches the child too —
// with the parent's error.
func TestPhaseDoneOnParentCancel(t *testing.T) {
	std, cancel := context.WithCancel(context.Background())
	p := Start(std, time.Hour)
	cancel()
	<-p.Done()
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err under a cancelled parent = %v, want Canceled", err)
	}
	p.End()

	parent := Start(context.Background(), time.Hour)
	child := Start(parent, time.Hour)
	grandchild := Start(child, time.Hour)
	parent.Cancel()
	<-grandchild.Done()
	if err := child.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("child Err = %v, want Canceled", err)
	}
	grandchild.End()
	child.End()
	parent.End()

	parent = Start(context.Background(), 10*time.Millisecond)
	child = Start(parent, time.Hour)
	<-child.Done()
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err under an expired parent phase = %v, want DeadlineExceeded", err)
	}
	child.End()
	parent.End()

	// A phase started under a parent already done is done at once.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	p = Start(done, time.Hour)
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err under a done parent = %v, want Canceled", err)
	}
	p.End()
}

// TestPhaseCancel: Cancel closes Done — handed out before or after — with
// Canceled, and a later expiry changes nothing.
func TestPhaseCancel(t *testing.T) {
	p := Start(context.Background(), 5*time.Millisecond)
	before := p.Done()
	p.Cancel()
	<-before
	<-p.Done()
	waitPast(10 * time.Millisecond) // past the 5ms deadline
	if err := p.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", err)
	}
	p.End()

	q := Start(context.Background(), time.Hour)
	q.Cancel()
	<-q.Done() // never handed out before Cancel
	q.End()
}

type key struct{}

// TestPhaseValueAsksParent: Value delegates to the parent, through phases.
func TestPhaseValueAsksParent(t *testing.T) {
	parent := context.WithValue(context.Background(), key{}, "v")
	p := Start(parent, time.Hour)
	defer p.End()
	child := Start(p, time.Hour)
	defer child.End()
	if got := child.Value(key{}); got != "v" {
		t.Fatalf("Value = %v, want v", got)
	}
	if got := p.Value("missing"); got != nil {
		t.Fatalf("Value of a missing key = %v", got)
	}
}

// TestPhaseStdChildrenStartNoGoroutine: standard children of a phase
// register through its AfterFunc method — a thousand of them start no
// goroutine — and the phase's end cancels them all; a child cancelled first
// unregisters.
func TestPhaseStdChildrenStartNoGoroutine(t *testing.T) {
	p := Start(context.Background(), time.Hour)
	base := runtime.NumGoroutine()
	var cancels []context.CancelFunc
	var children []context.Context
	for range 1000 {
		c, cancel := context.WithCancel(p)
		children = append(children, c)
		cancels = append(cancels, cancel)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("1000 children took the goroutine count from %d to %d", base, n)
	}
	cancels[0]()
	p.mu.Lock()
	registered := len(p.kids)
	p.mu.Unlock()
	if registered != 999 {
		t.Fatalf("%d children registered after one cancelled itself, want 999", registered)
	}
	p.Cancel()
	for i, c := range children {
		<-c.Done()
		if i > 0 && !errors.Is(c.Err(), context.Canceled) {
			t.Fatalf("child %d Err = %v", i, c.Err())
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
	p.End()

	// context.AfterFunc on a phase: stop unregisters, and End runs the rest.
	q := Start(context.Background(), time.Hour)
	ran := make(chan int, 2)
	stop := context.AfterFunc(q, func() { ran <- 1 })
	context.AfterFunc(q, func() { ran <- 2 })
	if !stop() {
		t.Fatal("stop before the phase ended = false")
	}
	q.End()
	if got := <-ran; got != 2 {
		t.Fatalf("ran %d, want the unstopped function", got)
	}
}

// TestPhaseWithStdChildIsNotReused: a standard child's cancel callback may
// run after its phase has ended — from an expiry racing End — and reads the
// phase's Err and parent then, so such a phase is never pooled: the child
// always ends with the phase's error and the next Start never returns it.
// Run it under -race.
func TestPhaseWithStdChildIsNotReused(t *testing.T) {
	for i := range 500 {
		p := Start(context.Background(), time.Duration(i%4)*25*time.Microsecond+time.Microsecond)
		c, cancel := context.WithCancel(p)
		p.mu.Lock()
		registered := p.std // false if p expired first: WithCancel cancelled c at once
		p.mu.Unlock()
		if i%2 == 0 {
			<-c.Done()
		}
		p.End()
		q := Start(context.Background(), time.Hour)
		if registered && q == p {
			t.Fatalf("use %d: a phase with a standard child was pooled", i)
		}
		<-c.Done()
		if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("use %d: child Err = %v", i, err)
		}
		if registered && p.Err() == nil {
			t.Fatalf("use %d: an ended phase reports no error", i)
		}
		q.End()
		cancel()
	}
}

// TestPhaseReuseNeverReportsEarlierExpiry: a phase ended while its expiry
// is due, or already under way, and pooled, is never expired by it in its
// next use.
func TestPhaseReuseNeverReportsEarlierExpiry(t *testing.T) {
	var held []*Phase
	for i := range 2000 {
		p := Start(context.Background(), time.Duration(i%50)*time.Microsecond)
		for start := time.Now(); time.Since(start) < time.Duration(i%60)*time.Microsecond; {
		}
		p.End()
		held = append(held, Start(context.Background(), time.Hour))
	}
	waitPast(5 * time.Millisecond) // past every short deadline
	for i, p := range held {
		if err := p.Err(); err != nil {
			t.Fatalf("phase %d reports %v in a use armed for an hour", i, err)
		}
		select {
		case <-p.Done():
			t.Fatalf("phase %d is done in a use armed for an hour", i)
		default:
		}
		p.End()
	}
}

// TestPhaseStragglerChild is a broadcast round's pattern: the caller's
// phase ends while the child phase of its round still has a sender out, and
// the last sender ends the child. Run it under -race.
func TestPhaseStragglerChild(t *testing.T) {
	for i := range 500 {
		parent := Start(context.Background(), time.Second)
		child := Start(parent, time.Duration(i%5)*50*time.Microsecond+time.Microsecond)
		var refs atomic.Int32
		refs.Store(3)
		release := func() {
			if refs.Add(-1) == 0 {
				child.End()
			}
		}
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer release()
				select {
				case <-child.Done():
					if child.Err() == nil {
						t.Error("Done closed with no error")
					}
				case <-time.After(time.Duration(i%3) * 100 * time.Microsecond):
				}
			}()
		}
		if i%2 == 0 {
			child.Cancel() // the caller stops listening early
		}
		release()
		parent.End() // before the stragglers are done
		wg.Wait()
	}
}

// TestPhaseAllocs: a phase armed, waited on through Done and ended, from a
// warm pool, allocates nothing.
func TestPhaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	ready := make(chan struct{}, 1)
	phase := func() {
		p := Start(context.Background(), time.Hour)
		ready <- struct{}{}
		select {
		case <-ready:
		case <-p.Done():
			t.Fatal("Done closed early")
		}
		p.End()
	}
	phase()
	if allocs := testing.AllocsPerRun(1000, phase); allocs != 0 {
		t.Fatalf("a phase allocates %.1f/op, want 0", allocs)
	}
}
