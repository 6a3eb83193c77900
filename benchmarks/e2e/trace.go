package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
)

// Tracing from outside: the traced run installs a decorator on each seam
// the code already has — every network.Transport, every replica's
// network.AsyncHandler, every store's kvstore.Engine and the disk.FS under
// it — and records one span per call. Nothing inside internal/ changes.

// span is one timed call at a layer boundary.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"` // the span that caused this one, 0 = none known
	Op     int32  `json:"op,omitempty"`     // 1-based index of the client op, 0 = none known
	Name   string `json:"name"`             // op.<kind>, client.<call>, send.<kind>, handle.<kind>, engine.<call>, fs.<call>
	At     string `json:"at"`               // client name or datacenter
	Start  int64  `json:"start_ns"`         // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Group  string `json:"group,omitempty"`
	// Pos is the log position the call concerns: the request's, or for a
	// submit the position its reply reports. It is how a master's accept
	// and apply rounds are joined to the submit that caused them.
	Pos int64 `json:"pos,omitempty"`
	OK  bool  `json:"ok"`
}

// linkKey identifies one in-flight request from both ends of the wire: the
// sender registers its send span under it, the receiving handler looks its
// parent up. One op at a time per client keeps it unambiguous.
type linkKey struct {
	from, to string
	kind     network.Kind
	group    string
	pos      int64
	ballot   int64
}

type linkVal struct{ id, op int32 }

// tracer collects spans in memory; they are written out when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32

	mu       sync.Mutex
	spans    []span
	inflight map[linkKey]linkVal

	sent, timeouts atomic.Int64
	bytes          atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: make(map[linkKey]linkVal)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.sent.Store(0)
	t.timeouts.Store(0)
	t.bytes.Store(0)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the stage table and the spans to dir/spans.json.
func writeSpans(dir string, table []stageRow, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := dir + "/spans.json"
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Stages []stageRow `json:"stages"`
		Spans  []span     `json:"spans"`
	}{table, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// opCursor is what a client's transport reads to parent its sends: the op
// the client is running now. A client runs one op at a time.
type opCursor struct {
	op, span atomic.Int32
}

// tracedTransport records one span per Send.
type tracedTransport struct {
	network.Transport
	t   *tracer
	at  string
	cur *opCursor // nil for a replica's transport
}

var sizeBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// wireBytes is the encoded size of m; under network.Sim nothing is encoded,
// so this is what the message would cost on the wire.
func wireBytes(m network.Message) int64 {
	bp := sizeBufPool.Get().(*[]byte)
	out := network.AppendMessage((*bp)[:0], m)
	n := len(out)
	*bp = out[:0]
	sizeBufPool.Put(bp)
	return int64(n)
}

func (tt *tracedTransport) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	t := tt.t
	s := span{ID: t.nextID.Add(1), Name: "send." + kindName(req.Kind), At: tt.at, Group: req.Group, Pos: req.Pos}
	if tt.cur != nil {
		s.Op, s.Parent = tt.cur.op.Load(), tt.cur.span.Load()
	}
	key := linkKey{tt.Transport.Local(), to, req.Kind, req.Group, req.Pos, req.Ballot}
	t.mu.Lock()
	t.inflight[key] = linkVal{s.ID, s.Op}
	t.mu.Unlock()
	t.sent.Add(1)
	t.bytes.Add(wireBytes(req))

	s.Start = t.now()
	resp, err := tt.Transport.Send(ctx, to, req)
	s.End = t.now()

	t.mu.Lock()
	if t.inflight[key].id == s.ID {
		delete(t.inflight, key)
	}
	t.mu.Unlock()
	if err == nil {
		t.sent.Add(1)
		t.bytes.Add(wireBytes(resp))
		s.OK = resp.OK
	} else if errors.Is(err, network.ErrTimeout) && !errors.Is(ctx.Err(), context.Canceled) {
		// A proposer cancels the sends it no longer needs once its round
		// has a quorum; the transport reports those as timeouts too.
		t.timeouts.Add(1)
	}
	t.record(s)
	return resp, err
}

// kindName folds the two single-group read requests into one name.
func kindName(k network.Kind) string {
	if k == network.KindReadMulti {
		return string(network.KindRead)
	}
	return string(k)
}

// traceHandler records one span per request a replica serves, from the
// transport's invoke to the handler's reply.
func (t *tracer) traceHandler(dc string, h network.AsyncHandler) network.AsyncHandler {
	return func(from string, req network.Message, reply func(network.Message)) {
		s := span{ID: t.nextID.Add(1), Name: "handle." + kindName(req.Kind), At: dc, Group: req.Group, Pos: req.Pos}
		t.mu.Lock()
		if l, ok := t.inflight[linkKey{from, dc, req.Kind, req.Group, req.Pos, req.Ballot}]; ok {
			s.Parent, s.Op = l.id, l.op
		}
		t.mu.Unlock()
		isSubmit := req.Kind == network.KindSubmit
		s.Start = t.now()
		h(from, req, func(resp network.Message) {
			s.End = t.now()
			s.OK = resp.OK
			if isSubmit && resp.OK {
				s.Pos = resp.TS
			}
			t.record(s)
			reply(resp)
		})
	}
}

// tracedEngine times the store's calls into its durability engine: Append
// is the encode+enqueue, Sync the wait for the group commit.
type tracedEngine struct {
	inner *disk.Engine
	t     *tracer
	at    string
}

func (e *tracedEngine) Append(muts []kvstore.Mutation) (uint64, error) {
	s := span{ID: e.t.nextID.Add(1), Name: "engine.append", At: e.at, Start: e.t.now()}
	seq, err := e.inner.Append(muts)
	s.End, s.OK = e.t.now(), err == nil
	e.t.record(s)
	return seq, err
}

func (e *tracedEngine) Sync(seq uint64) error {
	s := span{ID: e.t.nextID.Add(1), Name: "engine.sync", At: e.at, Start: e.t.now()}
	err := e.inner.Sync(seq)
	s.End, s.OK = e.t.now(), err == nil
	e.t.record(s)
	return err
}

func (e *tracedEngine) Close() error { return e.inner.Close() }

// Fault and HealthSummary keep the store's and the service's optional
// health probes working through the decorator.
func (e *tracedEngine) Fault() error { return e.inner.Fault() }
func (e *tracedEngine) HealthSummary() (string, int, []string) {
	return e.inner.HealthSummary()
}

// tracedFS times the disk engine's file writes and fsyncs and counts bytes
// and published snapshots.
type tracedFS struct {
	disk.FS
	t  *tracer
	at string

	bytes     atomic.Int64
	snapshots atomic.Int64
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (disk.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return file, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

// Rename is how the engine publishes a completed snapshot, and its only use.
func (f *tracedFS) Rename(oldpath, newpath string) error {
	f.snapshots.Add(1)
	return f.FS.Rename(oldpath, newpath)
}

type tracedFile struct {
	disk.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t := f.fs.t
	s := span{ID: t.nextID.Add(1), Name: "fs.write", At: f.fs.at, Start: t.now()}
	n, err := f.File.Write(p)
	s.End, s.OK = t.now(), err == nil
	t.record(s)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	t := f.fs.t
	s := span{ID: t.nextID.Add(1), Name: "fs.fsync", At: f.fs.at, Start: t.now()}
	err := f.File.Sync()
	s.End, s.OK = t.now(), err == nil
	t.record(s)
	return err
}
