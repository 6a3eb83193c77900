package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// The yardstick: a small replicated store that is part of the benchmark, not
// of the repository, and that no later change may touch. It exists because
// the benchmark runs on a few cores of a shared host whose speed for this
// kind of work — UDP system calls, goroutine hand-offs, allocation, maps, a
// growing heap — moves by 10-30 % from one second to the next and from one
// minute to the next with what the neighbours do to the caches and the
// memory (a pure-ALU loop does not notice; anything that misses the cache
// does). A wall-clock number of a CPU-bound workload taken alone therefore
// says as much about the neighbours as about the code.
//
// So a CPU-bound workload is measured against the yardstick: its measured
// list runs in chunks of about a quarter of a second, a yardstick slice (a
// fixed count of round trips, about a tenth of a second) runs between every
// two chunks while the clients wait, and the workload's timings are divided
// by the mean slice time over referenceNominal. What is reported is the
// time the workload would have taken on a machine that runs a slice in
// exactly referenceNominal. Both sides feel the same machine within the
// same second, so most of the machine cancels: over 12 runs on a loud
// afternoon the raw elapsed time of commit-mem spread 14 % (interquartile
// range over median; range 25 %) and the scaled one 3.4 %, read-scan's 11 %
// and 3.6 %. One slice before and one after the phase, instead of one every
// quarter second, made it worse than no scaling at all (15 % and 19 %).
//
// The yardstick mimics the commit path's shape and uses only the standard
// library: two groups, each a master and two followers on UDP loopback
// sockets; a client sends a 4-write request, the master forwards it to both
// followers, waits for both acks, applies it and replies; applying appends
// a version per key to a map of rows and keeps the request in a log.

const (
	// referenceNominal is the slice time of the machine the scaled timings
	// are stated for.
	referenceNominal = 100 * time.Millisecond
	// referenceTrips is how many requests each of the two yardstick clients
	// sends in one slice (the tests send a hundredth).
	referenceTrips = 1500
	// referenceTimeout bounds one wait for a datagram. Loopback does not
	// lose the single datagram each socket has in flight; if it ever does,
	// the run fails instead of hanging.
	referenceTimeout = 5 * time.Second

	refWrites   = 4
	refKeys     = 10000
	refWriteLen = 2 + valueBytes // key id, value
)

type refVersion struct {
	pos int64
	val string
}

// refStore is one yardstick replica's state, emptied before every slice so
// that every slice does the same work.
type refStore struct {
	mu   sync.Mutex
	rows map[string][]refVersion
	log  [][]byte
}

func (s *refStore) reset() {
	s.mu.Lock()
	s.rows = make(map[string][]refVersion)
	s.log = nil
	s.mu.Unlock()
}

func (s *refStore) apply(pos int64, req []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, append([]byte(nil), req...))
	for off := 0; off+refWriteLen <= len(req); off += refWriteLen {
		k := "k" + strconv.Itoa(int(binary.LittleEndian.Uint16(req[off:])))
		s.rows[k] = append(s.rows[k], refVersion{pos, string(req[off+2 : off+refWriteLen])})
	}
}

// yardstick is the running reference system.
type yardstick struct {
	conns   []*net.UDPConn
	stores  []*refStore
	clients [2]*net.UDPConn
	masters [2]*net.UDPAddr
	served  sync.WaitGroup
	trips   int           // requests per client and slice
	nominal time.Duration // referenceNominal, in proportion when trips is not referenceTrips

	slices int
	total  time.Duration
}

func newYardstick(trips int) (*yardstick, error) {
	y := &yardstick{trips: trips, nominal: referenceNominal * time.Duration(trips) / referenceTrips}
	listen := func() (*net.UDPConn, *net.UDPAddr, error) {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, nil, err
		}
		y.conns = append(y.conns, c)
		return c, c.LocalAddr().(*net.UDPAddr), nil
	}
	for g := range y.clients {
		var socks [5]*net.UDPConn // master, follower, follower, master's follower-facing socket, client
		var addrs [5]*net.UDPAddr
		for i := range socks {
			var err error
			if socks[i], addrs[i], err = listen(); err != nil {
				y.close()
				return nil, fmt.Errorf("yardstick: %w", err)
			}
		}
		y.clients[g], y.masters[g] = socks[4], addrs[0]
		for i := 0; i < 3; i++ {
			st := &refStore{}
			y.stores = append(y.stores, st)
			var followers []*net.UDPAddr
			if i == 0 {
				followers = addrs[1:3]
			}
			y.served.Add(1)
			go func() {
				defer y.served.Done()
				refServe(socks[i], st, followers, socks[3])
			}()
		}
	}
	// The first slice pays for socket buffers and goroutine stacks.
	if _, err := y.slice(); err != nil {
		y.close()
		return nil, err
	}
	y.slices, y.total = 0, 0
	return y, nil
}

// refServe is one replica: a follower applies and acks; a master (followers
// set) first forwards to its followers from `out` and collects their acks.
// It returns when its socket is closed.
func refServe(c *net.UDPConn, st *refStore, followers []*net.UDPAddr, out *net.UDPConn) {
	buf := make([]byte, 2048)
	ack := make([]byte, 64)
	var pos int64
	for {
		n, from, err := c.ReadFromUDP(buf)
		if err != nil {
			return
		}
		pos++
		for _, f := range followers {
			out.WriteToUDP(buf[:n], f)
		}
		for range followers {
			out.SetReadDeadline(time.Now().Add(referenceTimeout))
			if _, _, err := out.ReadFromUDP(ack); err != nil {
				return
			}
		}
		st.apply(pos, buf[:n])
		c.WriteToUDP(buf[:8], from)
	}
}

// slice runs one fixed piece of reference work — y.trips requests from each
// client, closed-loop — and returns how long it took.
func (y *yardstick) slice() (time.Duration, error) {
	for _, st := range y.stores {
		st.reset()
	}
	errs := make([]error, len(y.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range y.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := make([]byte, refWrites*refWriteLen)
			rep := make([]byte, 64)
			x := uint64(g + 1)
			for n := 0; n < y.trips; n++ {
				for off := 0; off < len(req); off += refWriteLen {
					x = x*6364136223846793005 + 1442695040888963407
					binary.LittleEndian.PutUint16(req[off:], uint16((x>>33)%refKeys))
					for j := 2; j < refWriteLen; j++ {
						req[off+j] = 'a' + byte(x>>uint(j%32))&15
					}
				}
				c.SetReadDeadline(time.Now().Add(referenceTimeout))
				if _, err := c.WriteToUDP(req, y.masters[g]); err != nil {
					errs[g] = err
					return
				}
				if _, _, err := c.ReadFromUDP(rep); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("yardstick slice: %w", err)
		}
	}
	y.slices++
	y.total += took
	return took, nil
}

// speed is how many times longer than nominal a slice of d took: above 1
// the machine is slower than the one scaled timings are stated for.
func (y *yardstick) speed(d time.Duration) float64 { return float64(d) / float64(y.nominal) }

// mean returns the mean slice time since the last call and starts a new
// mean.
func (y *yardstick) mean() time.Duration {
	if y.slices == 0 {
		return 0
	}
	m := y.total / time.Duration(y.slices)
	y.slices, y.total = 0, 0
	return m
}

func (y *yardstick) close() {
	for _, c := range y.conns {
		c.Close()
	}
	y.served.Wait()
}
