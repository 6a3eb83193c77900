package disk

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
)

// gateFS is the real filesystem with every fsync of a WAL segment, once
// armed, announced on entered and held until the test releases it. releaseAll
// (registered as a cleanup by newGateFS) lets a failed test end instead of
// leaving the engine's Close behind a held fsync.
type gateFS struct {
	FS
	armed   atomic.Bool
	entered chan *heldFsync

	mu   sync.Mutex
	held []*heldFsync
}

type heldFsync struct {
	ch   chan struct{}
	once sync.Once
}

func (h *heldFsync) release() { h.once.Do(func() { close(h.ch) }) }

func newGateFS(t *testing.T) *gateFS {
	g := &gateFS{FS: OSFS(), entered: make(chan *heldFsync, 16)}
	t.Cleanup(g.releaseAll)
	return g
}

func (g *gateFS) releaseAll() {
	g.armed.Store(false)
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, h := range g.held {
		h.release()
	}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 || !strings.HasSuffix(name, ".log") {
		return f, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	if f.fs.armed.Load() {
		h := &heldFsync{ch: make(chan struct{})}
		f.fs.mu.Lock()
		f.fs.held = append(f.fs.held, h)
		f.fs.mu.Unlock()
		f.fs.entered <- h
		<-h.ch
	}
	return f.File.Sync()
}

// nextFsync returns the next fsync to start, held, or fails the test if none
// does.
func (g *gateFS) nextFsync(t *testing.T, what string) *heldFsync {
	t.Helper()
	select {
	case h := <-g.entered:
		return h
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no fsync started", what)
		return nil
	}
}

func (g *gateFS) noFsync(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.entered:
		t.Fatalf("%s: an fsync started", what)
	case <-time.After(50 * time.Millisecond):
	}
}

func appendedSeq(e *Engine) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.appended
}

// gatedWriters returns write, which starts a store write on its own goroutine
// and returns once the engine has its record, acked, which waits for that
// write's acknowledgement, and the acknowledgement channels by key.
func gatedWriters(t *testing.T, s *kvstore.Store, e *Engine) (write, acked func(key string), done map[string]chan error) {
	done = make(map[string]chan error)
	write = func(key string) {
		ch := make(chan error, 1)
		done[key] = ch
		before := appendedSeq(e)
		go func() {
			_, err := s.Write(key, kvstore.Value{"v": key}, 1)
			ch <- err
		}()
		for appendedSeq(e) == before {
			time.Sleep(100 * time.Microsecond)
		}
	}
	acked = func(key string) {
		t.Helper()
		select {
		case err := <-done[key]:
			if err != nil {
				t.Fatalf("write %s: %v", key, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("write %s was not acknowledged", key)
		}
	}
	return write, acked, done
}

// TestSecondFlushStartsBesideTheFirst pins SyncBatch's election with two
// flushers' places (batchFlushers): a write that arrives while an fsync is
// under way starts its own at once instead of waiting for that one and then
// for its own; writes that find both places taken wait and ride one fsync
// together; and when the second fsync returns before the first, what it
// acknowledged — everything written before it was called — is what a power
// loss leaves, whatever the first one reports afterwards.
func TestSecondFlushStartsBesideTheFirst(t *testing.T) {
	dir := t.TempDir()
	fs := newGateFS(t)
	s, e := mustOpen(t, dir, Options{FS: fs})
	fs.armed.Store(true)
	fsyncs0 := e.Fsyncs()
	write, acked, done := gatedWriters(t, s, e)

	write("a")
	first := fs.nextFsync(t, "write a")
	write("b")
	second := fs.nextFsync(t, "write b, while a's fsync is under way")
	for _, key := range []string{"c", "d", "e"} {
		write(key)
	}
	fs.noFsync(t, "both flushers' places taken")

	second.release()
	acked("b")
	third := fs.nextFsync(t, "writes c, d, e, once a place is free")
	fs.noFsync(t, "c, d and e ride one fsync")
	third.release()
	for _, key := range []string{"c", "d", "e"} {
		acked(key)
	}
	select {
	case err := <-done["a"]:
		t.Fatalf("write a returned (%v) with its own fsync still held", err)
	default:
	}
	first.release()
	acked("a")
	if got := e.Fsyncs() - fsyncs0; got != 3 {
		t.Fatalf("five writes cost %d fsyncs, want 3", got)
	}

	// The first fsync returned last and covers less of the file than the
	// second and third did: the durable prefix must not shrink to it.
	fs.armed.Store(false)
	e.Crash()
	s2, e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		if _, _, err := s2.Read(key, kvstore.Latest); err != nil {
			t.Fatalf("acknowledged write %s lost after the crash: %v", key, err)
		}
	}
}

// TestNewcomerWaitsWithTheRiders: the second flusher's place is for a caller
// that would otherwise wait alone. One that finds a rider already waiting for
// the flush under way waits with it, and the two ride the next flush — under
// many writers a flush started early would carry one record where the next
// carries the queue.
func TestNewcomerWaitsWithTheRiders(t *testing.T) {
	fs := newGateFS(t)
	s, e := mustOpen(t, t.TempDir(), Options{FS: fs})
	defer func() {
		fs.releaseAll()
		e.Close()
	}()
	fs.armed.Store(true)
	write, acked, _ := gatedWriters(t, s, e)

	// One flush under way, carrying c and d, and whichever of the two did not
	// start it waiting for it: a and b take both places, c and d queue behind
	// them, b's return frees the place that takes c and d, a's return leaves
	// that flush alone.
	write("a")
	first := fs.nextFsync(t, "write a")
	write("b")
	second := fs.nextFsync(t, "write b")
	write("c")
	write("d")
	second.release()
	acked("b")
	third := fs.nextFsync(t, "writes c and d")
	first.release()
	acked("a")

	write("e")
	fs.noFsync(t, "write e, with a rider waiting for the flush under way")
	third.release()
	acked("c")
	acked("d")
	fs.nextFsync(t, "write e, once the flush it waited for is over").release()
	acked("e")
}
