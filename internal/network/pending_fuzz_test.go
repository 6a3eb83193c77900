package network

import (
	"context"
	"encoding/binary"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/deadline"
)

// FuzzPendingCalls drives the pending-call table at the datagram level. The
// input is a script: Sends (most under a phase of one to four milliseconds,
// which times out on its deadline; some under no deadline at all,
// which Close ends), asynchronous calls (Go) and their hang-ups, replies by
// request ID — in time, late, duplicated, under the ID of a call long gone —
// forged IDs no call ever had, raw bytes, and pauses that let phases expire.
// Each reply carries the token of the call its ID belongs to. Every Send
// must return its own reply, ErrTimeout or ErrClosed — never a reply meant
// for another call. Every Go call's done must run at most once, with its own
// reply or ErrClosed, never after its hang-up has returned, and exactly once
// — by Close at the latest — for a call not hung up. The table must be empty
// once the transport is closed.
func FuzzPendingCalls(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0})
	f.Add([]byte{0, 1, 0, 2, 4, 2, 0, 3, 0, 1, 1, 3, 0})
	f.Add([]byte{0, 3, 4, 0, 4, 0, 1, 1, 1, 0, 3, 1, 3, 1, 5, 7, 9})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 4, 3, 4, 1, 0, 1, 1, 1, 2, 3, 1, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 3, 1, 128, 0, 1, 0, 4, 0, 1, 0, 3, 0})
	f.Add([]byte{7, 7, 2, 0, 8, 1, 2, 1, 8, 0, 4, 0, 7, 16, 2, 2})
	f.Add([]byte{7, 0, 2, 7, 8, 1, 3, 0, 8, 0, 8, 1, 7, 2, 2, 4, 1, 8, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		u, err := NewUDPAsync("A", "127.0.0.1:0", map[string]string{"B": "127.0.0.1:9"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Requests never reach the socket: the hook reads each one's ID and
		// token, in the order the Sends wrote them.
		type request struct{ id, token uint64 }
		written := make(chan request, 1)
		u.writeTo = func(b []byte, _ netip.AddrPort) (int, error) {
			if env, err := decodeEnvelope(b, nil); err == nil && !env.Resp {
				written <- request{env.ID, uint64(env.Msg.TS)}
			}
			return len(b), nil
		}
		from := netip.MustParseAddrPort("127.0.0.1:9")
		reply := func(id, token uint64) []byte {
			return appendEnvelope(nil, envelope{ID: id, From: "B", Resp: true,
				Msg: Message{Kind: KindStatus, OK: true, TS: int64(token)}})
		}

		type outcome struct {
			token uint64
			resp  Message
			err   error
		}
		// async is one Go call's record, guarded by mu.
		type async struct {
			token  uint64
			call   Call
			fired  int
			hungUp bool
			err    error
		}
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			outcomes []outcome
			reqs     []request
			sent     [][]byte
			asyncs   []*async
		)
		next := func(i *int) byte {
			if *i >= len(script) {
				return 0
			}
			b := script[*i]
			*i++
			return b
		}
		for i := 0; i < len(script); {
			switch op := next(&i); op % 9 {
			case 0, 1: // a Send
				token := uint64(len(reqs) + 1)
				d := time.Duration(1+next(&i)%4) * time.Millisecond
				wg.Add(1)
				go func() {
					defer wg.Done()
					var ctx context.Context = context.Background()
					if op == 0 {
						ph := deadline.Start(ctx, d)
						defer ph.End()
						ctx = ph
					}
					resp, err := u.Send(ctx, "B", Message{Kind: KindReadPos, TS: int64(token)})
					mu.Lock()
					outcomes = append(outcomes, outcome{token, resp, err})
					mu.Unlock()
				}()
				reqs = append(reqs, <-written)
			case 2, 3: // a reply to a request made so far: in time, late, or long gone
				if len(reqs) == 0 {
					continue
				}
				r := reqs[int(next(&i))%len(reqs)]
				b := reply(r.id, r.token)
				sent = append(sent, b)
				u.handleDatagram(b, from)
			case 4: // a reply already delivered, again
				if len(sent) == 0 {
					continue
				}
				u.handleDatagram(sent[int(next(&i))%len(sent)], from)
			case 5: // a forged ID: the transport's IDs count up from 1
				var id [8]byte
				for k := range id {
					id[k] = next(&i)
				}
				u.handleDatagram(reply(binary.BigEndian.Uint64(id[:])|1<<63, 0), from)
			case 6: // raw bytes, then a pause that lets phases expire
				n := int(next(&i)) % 16
				raw := script[i:min(i+n, len(script))]
				i += len(raw)
				u.handleDatagram(raw, from)
				time.Sleep(time.Millisecond)
			case 7: // a Go call
				a := &async{token: uint64(len(reqs) + 1)}
				a.call = u.Go("B", Message{Kind: KindReadPos, TS: int64(a.token)}, func(resp Message, err error) {
					mu.Lock()
					defer mu.Unlock()
					switch a.fired++; {
					case a.hungUp:
						t.Errorf("call %d: done ran after its hang-up returned", a.token)
					case err == nil && uint64(resp.TS) != a.token:
						t.Errorf("call %d got the reply meant for call %d", a.token, resp.TS)
					}
					a.err = err
				})
				asyncs = append(asyncs, a)
				reqs = append(reqs, <-written)
			case 8: // hang up a Go call, perhaps again
				if len(asyncs) == 0 {
					continue
				}
				a := asyncs[int(next(&i))%len(asyncs)]
				a.call.HangUp()
				mu.Lock()
				a.hungUp = true
				mu.Unlock()
			}
		}
		u.Close() // ends the Sends with no deadline
		wg.Wait()
		for _, o := range outcomes {
			switch {
			case o.err == nil && uint64(o.resp.TS) != o.token:
				t.Fatalf("Send %d got the reply meant for Send %d", o.token, o.resp.TS)
			case o.err != nil && !errors.Is(o.err, ErrTimeout) && !errors.Is(o.err, ErrClosed):
				t.Fatalf("Send %d: %v, want its reply, ErrTimeout or ErrClosed", o.token, o.err)
			}
		}
		mu.Lock()
		for _, a := range asyncs {
			switch {
			case a.fired > 1:
				t.Fatalf("call %d: done ran %d times", a.token, a.fired)
			case !a.hungUp && a.fired != 1:
				t.Fatalf("call %d, not hung up: done ran %d times by Close, want once", a.token, a.fired)
			case a.err != nil && !errors.Is(a.err, ErrClosed):
				t.Fatalf("call %d: %v, want its reply or ErrClosed", a.token, a.err)
			}
		}
		mu.Unlock()
		u.mu.RLock()
		left := len(u.pending)
		u.mu.RUnlock()
		if left != 0 {
			t.Fatalf("%d calls left in the pending table", left)
		}
	})
}
