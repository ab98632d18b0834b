package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"gvfs/internal/obs"
)

// probe instruments one session in a traced round: its transport is
// wrapped in a counting, timing net.Conn and its page cache publishes
// into a registry of its own. Untraced rounds mount without a probe,
// so none of this runs while end-to-end metrics are measured.
type probe struct {
	reg *obs.Registry

	mu    sync.Mutex
	conns []*tracedConn
}

func newProbe() *probe { return &probe{reg: obs.NewRegistry()} }

// dial returns a SessionConfig.Dial that wraps each connection.
func (p *probe) dial(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		c := &tracedConn{Conn: raw}
		p.mu.Lock()
		p.conns = append(p.conns, c)
		p.mu.Unlock()
		return c, nil
	}
}

// rpcStats sums the probe's connections.
func (p *probe) rpcStats() (calls, reads, writes uint64, busy time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.mu.Lock()
		calls += c.calls
		reads += c.reads
		writes += c.writes
		busy += c.busy
		c.mu.Unlock()
	}
	return
}

// tracedConn counts Read and Write calls on a session's transport and
// times each RPC from its request's first Write to the Read that
// completes its reply record. A session issues one call at a time, so
// at most one call is outstanding on the connection.
type tracedConn struct {
	net.Conn

	mu      sync.Mutex
	calls   uint64
	reads   uint64
	writes  uint64
	busy    time.Duration
	pending bool
	start   time.Time

	// Reply record-marking state (RFC 5531 §11), advanced by Read.
	hdr    [4]byte
	hdrN   int
	remain uint32
	last   bool
}

func (c *tracedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	if !c.pending {
		c.pending = true
		c.start = time.Now()
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.reads++
	if done := c.consume(b[:n]); done > 0 && c.pending {
		c.calls += uint64(done)
		c.busy += time.Since(c.start)
		c.pending = false
	}
	c.mu.Unlock()
	return n, err
}

// consume advances the framing state over b and returns the number of
// reply records it completed.
func (c *tracedConn) consume(b []byte) int {
	done := 0
	for len(b) > 0 {
		if c.hdrN < 4 {
			k := copy(c.hdr[c.hdrN:], b)
			c.hdrN += k
			b = b[k:]
			if c.hdrN < 4 {
				break
			}
			mark := binary.BigEndian.Uint32(c.hdr[:])
			c.last = mark&0x80000000 != 0
			c.remain = mark & 0x7fffffff
		}
		k := uint32(len(b))
		if k > c.remain {
			k = c.remain
		}
		c.remain -= k
		b = b[k:]
		if c.remain == 0 {
			c.hdrN = 0
			if c.last {
				done++
			}
		}
	}
	return done
}
