package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"paxoscp/internal/network"
)

// scripted is a transport that answers from a script, one reply per send in
// order and an OK reply once the script is spent, and records whom the sender
// asked and when.
type scripted struct {
	script []scriptedReply
	asked  []string
	at     []time.Time
}

type scriptedReply struct {
	msg network.Message
	err error
}

func (s *scripted) Send(_ context.Context, to string, _ network.Message) (network.Message, error) {
	n := len(s.asked)
	s.asked, s.at = append(s.asked, to), append(s.at, time.Now())
	if n < len(s.script) {
		return s.script[n].msg, s.script[n].err
	}
	return network.Message{Kind: network.KindValue, OK: true, TS: 7}, nil
}

// Go answers from the script, as Send does, before it returns.
func (s *scripted) Go(to string, req network.Message, done func(network.Message, error)) network.Call {
	done(s.Send(context.Background(), to, req))
	return network.Call{}
}

func (s *scripted) Local() string   { return "A" }
func (s *scripted) Peers() []string { return []string{"A", "B", "C"} }
func (s *scripted) Close() error    { return nil }

// refuse scripts a refusal with verdict v whose hint names hint.
func refuse(v network.Verdict, hint string) scriptedReply {
	m := network.Refuse(v, "")
	m.Value = hint
	return scriptedReply{msg: m}
}

// TestVerdictTable pins, for every verdict and each of the sender's budgets,
// what the sender does with a refusal: whom it asks next, whether it waits a
// timeout first, or which refusal it hands back — the ladders commitMaster,
// sendPreferLocal and the migrator's two senders each spelled out by hand, row
// for row, and their corner rows.
func TestVerdictTable(t *testing.T) {
	const (
		timeout = 30 * time.Millisecond
		nm      = network.VerdictNotMaster
		rf      = network.VerdictReplicaFailed
	)
	verdicts := []network.Verdict{
		network.VerdictFailed, network.VerdictConflict, network.VerdictOverloaded, network.VerdictMoved,
		network.VerdictMigrating, nm, rf, network.VerdictShutdown, network.VerdictCompacted,
		network.VerdictDuplicateInFlight, network.VerdictDeposed,
	}
	if want := int(verdicts[len(verdicts)-1]) + 1; len(verdictRules) != want {
		t.Fatalf("verdictRules has %d rows for %d verdict codes", len(verdictRules), want)
	}
	if v := network.Verdict(len(verdictRules)); !strings.HasPrefix(v.String(), "Verdict(") {
		t.Fatalf("verdict %q has no row in verdictRules", v)
	}

	type mode int
	const (
		anyBounded mode = iota
		masterBounded
		masterPersistent
		anyPersistent
	)
	modeNames := []string{"toAny", "toMaster bounded", "toMaster until-context", "toAny until-context"}
	type row struct {
		name   string
		mode   mode
		script []scriptedReply
		asked  string // the replicas asked, in order
		paused string // per move from one ask to the next: 'p' a timeout's wait, '-' none
		// The outcome: an answer (both unset), a refusal handed back (verdict
		// and the replica it came from), or another error (its text).
		verdict network.Verdict
		from    string
		errText string
	}
	var rows []row

	// One refusal, then an answer: every verdict under every budget.
	for _, v := range verdicts {
		one := []scriptedReply{refuse(v, "B")}
		rule := verdictRules[v]
		// Any replica: shop on, unless every replica would say the same.
		r := row{name: v.String(), mode: anyBounded, script: one, asked: "AB", paused: "-"}
		if rule.everywhere {
			r = row{name: v.String(), mode: anyBounded, script: one, asked: "A", verdict: v, from: "A"}
		}
		rows = append(rows, r, row{name: v.String(), mode: anyPersistent, script: one, asked: "AB", paused: "-"})
		// The master.
		switch rule.master {
		case handBack:
			rows = append(rows,
				row{name: v.String(), mode: masterBounded, script: one, asked: "A", verdict: v, from: "A"},
				row{name: v.String(), mode: masterPersistent, script: one, asked: "AA", paused: "p"})
		case followHint:
			rows = append(rows,
				row{name: v.String(), mode: masterBounded, script: one, asked: "AB", paused: "-"},
				row{name: v.String(), mode: masterPersistent, script: one, asked: "AB", paused: "-"})
		case elsewhere:
			rows = append(rows,
				row{name: v.String(), mode: masterBounded, script: one, asked: "AB", paused: "-"},
				row{name: v.String(), mode: masterPersistent, script: one, asked: "AB", paused: "p"})
		}
	}

	// The corner rows.
	sendErr := scriptedReply{err: network.ErrTimeout}
	standBy := []scriptedReply{refuse(rf, ""), refuse(nm, "A")}
	allRefuse := []scriptedReply{refuse(rf, ""), refuse(rf, ""), refuse(rf, "")}
	ring := []scriptedReply{refuse(nm, "B"), refuse(nm, "C"), refuse(nm, "A"), refuse(nm, "B")}
	gaveUp := []scriptedReply{refuse(rf, "")}
	for len(gaveUp) < masterAttempts {
		gaveUp = append(gaveUp, refuse(nm, "A"))
	}
	rows = append(rows,
		row{name: "an uncoded refusal is a plain failure", mode: masterBounded,
			script: []scriptedReply{{msg: network.Message{Kind: network.KindStatus, Err: "from an older peer"}}},
			asked:  "A", verdict: network.VerdictFailed, from: "A"},
		row{name: "hint names a replica that refused: stand by, re-ask the same", mode: masterBounded,
			script: standBy, asked: "ABB", paused: "-p"},
		row{name: "hint names a replica that refused: stand by, re-ask the same", mode: masterPersistent,
			script: standBy, asked: "ABB", paused: "pp"},
		row{name: "every replica refused: the last one's refusal", mode: masterBounded,
			script: allRefuse, asked: "ABC", paused: "--", verdict: rf, from: "C", errText: "no healthy replica left"},
		row{name: "every replica refused: start over", mode: masterPersistent,
			script: allRefuse, asked: "ABCC", paused: "ppp"},
		row{name: "hint names the replica asked", mode: masterBounded,
			script: []scriptedReply{refuse(nm, "A")}, asked: "A", verdict: nm, from: "A"},
		row{name: "hint names the replica asked", mode: masterPersistent,
			script: []scriptedReply{refuse(nm, "A")}, asked: "AA", paused: "p"},
		row{name: "no hint", mode: masterBounded,
			script: []scriptedReply{refuse(nm, "")}, asked: "A", verdict: nm, from: "A"},
		row{name: "the fourth hop", mode: masterBounded,
			script: ring, asked: "ABCA", paused: "---", verdict: nm, from: "A"},
		row{name: "no hop is the last", mode: masterPersistent,
			script: ring, asked: "ABCAB", paused: "----"},
		row{name: "a send error", mode: masterBounded,
			script: []scriptedReply{sendErr}, asked: "A", errText: "submit to master A: network: timeout"},
		row{name: "a send error: another replica, nothing held against this one", mode: masterPersistent,
			script: []scriptedReply{sendErr, refuse(nm, "A")}, asked: "ABA", paused: "p-"},
		row{name: "the attempts run out", mode: masterBounded,
			script: gaveUp, asked: "A" + strings.Repeat("B", masterAttempts-1), paused: "-" + strings.Repeat("p", masterAttempts-2),
			verdict: nm, from: "B", errText: fmt.Sprintf("after %d attempts", masterAttempts)},
		row{name: "a send error: the next replica", mode: anyBounded,
			script: []scriptedReply{sendErr}, asked: "AB", paused: "-"},
		row{name: "nobody serves: the last refusal", mode: anyBounded,
			script: []scriptedReply{sendErr, refuse(network.VerdictFailed, ""), refuse(network.VerdictCompacted, "")},
			asked:  "ABC", paused: "--", verdict: network.VerdictCompacted, from: "C"},
		row{name: "nobody answers", mode: anyBounded,
			script: []scriptedReply{sendErr, sendErr, sendErr}, asked: "ABC", paused: "--", errText: "network: timeout"},
		row{name: "nobody serves: wait, then go round again", mode: anyPersistent,
			script: []scriptedReply{sendErr, refuse(network.VerdictMoved, "g9"), refuse(network.VerdictCompacted, "")},
			asked:  "ABCA", paused: "--p"},
	)

	for _, r := range rows {
		t.Run(modeNames[r.mode]+"/"+r.name, func(t *testing.T) {
			tr := &scripted{script: r.script}
			c := NewClient(1, "A", tr, Config{Protocol: Master, MasterDC: "A", Timeout: timeout})
			s := sender{c: c, persist: r.mode == masterPersistent || r.mode == anyPersistent}
			var resp network.Message
			var err error
			if r.mode == anyBounded || r.mode == anyPersistent {
				resp, err = s.toAny(context.Background(), readPosRequest("g"))
			} else {
				resp, err = s.toMaster(context.Background(), "g", network.Message{Kind: network.KindSubmit, Group: "g"})
			}

			if got := strings.Join(tr.asked, ""); got != r.asked {
				t.Errorf("asked %s, want %s", got, r.asked)
			}
			paused := make([]byte, 0, len(tr.at))
			for i := 1; i < len(tr.at); i++ {
				if tr.at[i].Sub(tr.at[i-1]) >= timeout {
					paused = append(paused, 'p')
				} else {
					paused = append(paused, '-')
				}
			}
			if string(paused) != r.paused {
				t.Errorf("paused %q, want %q", paused, r.paused)
			}

			var ref *Refusal
			switch {
			case r.verdict == network.VerdictNone && r.errText == "":
				if err != nil || !resp.OK {
					t.Fatalf("got %+v, %v; want an answer", resp, err)
				}
				if pos, ok := c.recentShown("g"); !ok || pos != resp.TS {
					t.Errorf("the answer's position %d was not kept (%d, %v)", resp.TS, pos, ok)
				}
			case r.verdict != network.VerdictNone:
				if !errors.As(err, &ref) || ref.Verdict != r.verdict || ref.From != r.from {
					t.Fatalf("got %v; want a %q refusal from %s", err, r.verdict, r.from)
				}
			case errors.As(err, &ref):
				t.Fatalf("got the refusal %v; want another error", err)
			}
			if r.errText != "" && (err == nil || !strings.Contains(err.Error(), r.errText)) {
				t.Errorf("error %v, want one saying %q", err, r.errText)
			}
		})
	}

	t.Run("until the context ends", func(t *testing.T) {
		script := slices.Repeat([]scriptedReply{refuse(network.VerdictOverloaded, "")}, 100)
		tr := &scripted{script: script}
		c := NewClient(1, "A", tr, Config{Protocol: Master, MasterDC: "A", Timeout: timeout})
		ctx, cancel := context.WithTimeout(context.Background(), 3*timeout+timeout/2)
		defer cancel()
		_, err := sender{c: c, persist: true}.toMaster(ctx, "g", network.Message{Kind: network.KindSubmit, Group: "g"})
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "overloaded") {
			t.Fatalf("got %v; want the context's error naming the last refusal", err)
		}
		if n := len(tr.asked); n < 3 || n > 4 {
			t.Fatalf("asked %d times in three and a half timeouts, want one ask per timeout", n)
		}
	})
}
