package tcpnet

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"
)

// server executes verbs against one served node's registered region.
// Each accepted connection is served by its own goroutine; atomicity
// across them comes from the striped region locks (see stripedLocks),
// not from serialising connections.
type server struct {
	n     *memNode
	ln    net.Listener
	wg    sync.WaitGroup
	locks *stripedLocks

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newServer(addr string, n *memNode) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &server{
		n:     n,
		ln:    ln,
		locks: newStripedLocks(uint64(len(n.mem))),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *server) close() {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// track registers a live connection; it reports false when the server
// is already shutting down.
func (s *server) track(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.n.pl.conns.add(s.n.id, 1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.n.pl.conns.add(s.n.id, -1)
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

func (s *server) serveConn(conn net.Conn) {
	defer conn.Close()
	pool := &s.n.pl.pool
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	// Scratches live outside the loop: declared inside, the io
	// interface calls would force one heap escape per frame. atomicBuf
	// holds CAS/FAA operands, which never need a pooled buffer.
	var hdr, rh [hdrSize]byte
	var atomicBuf [16]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		op := hdr[0]
		seq := binary.LittleEndian.Uint32(hdr[1:5])
		off := binary.LittleEndian.Uint64(hdr[5:13])
		n := binary.LittleEndian.Uint32(hdr[13:17])
		if n > s.n.pl.maxFrame() {
			return // oversized frame: the stream is broken or hostile
		}
		// Read the request payload — except for WRITE, whose bytes stay
		// on the stream so execution can copy them straight into the
		// region (see writeInline).
		var payload *[]byte
		var req []byte
		switch {
		case op == opCAS || op == opFAA:
			if n > 0 && n <= uint32(len(atomicBuf)) {
				if _, err := io.ReadFull(br, atomicBuf[:n]); err != nil {
					return
				}
				req = atomicBuf[:n]
			} else if n > 0 {
				return // malformed atomic operand: the stream is broken
			}
		case op == opRPC && n > 0:
			payload = pool.get(int(n))
			if _, err := io.ReadFull(br, *payload); err != nil {
				pool.put(payload)
				return
			}
			req = *payload
		}
		if delay, drop, reset := s.n.chaosRoll(); delay > 0 || drop || reset {
			if delay > 0 {
				time.Sleep(delay)
			}
			if reset {
				if payload != nil {
					pool.put(payload)
				}
				// Ack every executed frame before tearing the
				// connection down: with their responses delivered, the
				// client retries only frames that never executed, so
				// injected resets cannot double-apply a batched atomic.
				bw.Flush() //nolint:errcheck // connection is dying
				return     // connection reset before execution
			}
			if drop {
				if payload != nil {
					pool.put(payload)
				}
				// The dropped WRITE's payload is still on the stream.
				if op == opWrite && n > 0 {
					if _, err := br.Discard(int(n)); err != nil {
						return
					}
				}
				// Dropped before execution: flush earlier pipelined
				// responses so only this frame goes unanswered.
				if br.Buffered() == 0 {
					if err := bw.Flush(); err != nil {
						return
					}
				}
				continue
			}
		}
		var err error
		switch op {
		case opRead:
			var handled bool
			handled, err = s.readInline(bw, rh[:], seq, off, int(n))
			if err == nil && !handled {
				err = s.readPooled(bw, rh[:], seq, off, int(n))
			}
		case opWrite:
			err = s.writeInline(br, bw, rh[:], seq, off, int(n))
		default:
			status, result, resp := s.apply(op, off, req)
			if payload != nil {
				pool.put(payload)
			}
			rh[0] = status
			binary.LittleEndian.PutUint32(rh[1:5], seq)
			binary.LittleEndian.PutUint64(rh[5:13], result)
			binary.LittleEndian.PutUint32(rh[13:17], uint32(len(resp)))
			_, err = bw.Write(rh[:])
			if err == nil && len(resp) > 0 {
				_, err = bw.Write(resp)
			}
		}
		if err != nil {
			return
		}
		// Coalesce flushes: only drain the writer once the pipelined
		// request burst is exhausted.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// readInline serves a READ by copying straight from the region into
// the buffered writer — no pooled intermediate buffer, one copy total.
// It reports handled=false when the response cannot fit the writer's
// buffer in one piece (oversized reads fall back to the pooled path,
// where bufio passes large writes through); a returned error means the
// connection is broken. The stripe locks are held only across the
// in-memory copy: the Available check above guarantees bw.Write cannot
// flush (and therefore cannot block on the socket) while locks are
// held.
func (s *server) readInline(bw *bufio.Writer, rh []byte, seq uint32, off uint64, n int) (bool, error) {
	mem := s.n.mem
	status := stOK
	if !inRegion(mem, off, n) {
		status = stErrBounds
		n = 0
	}
	if hdrSize+n > bw.Available() {
		if err := bw.Flush(); err != nil {
			return true, err
		}
		if hdrSize+n > bw.Available() {
			return false, nil
		}
	}
	rh[0] = status
	binary.LittleEndian.PutUint32(rh[1:5], seq)
	binary.LittleEndian.PutUint64(rh[5:13], 0)
	binary.LittleEndian.PutUint32(rh[13:17], uint32(n))
	if _, err := bw.Write(rh); err != nil {
		return true, err
	}
	if n == 0 {
		return true, nil
	}
	lo, hi := s.locks.rangeIdx(off, n)
	s.locks.lockRange(lo, hi)
	_, err := bw.Write(mem[off : off+uint64(n)])
	s.locks.unlockRange(lo, hi)
	return true, err
}

// readPooled is the READ slow path for responses too large to stage
// inside the writer's buffer: copy the range into a pooled buffer under
// the stripe locks, then stream it out after the locks are released.
func (s *server) readPooled(bw *bufio.Writer, rh []byte, seq uint32, off uint64, n int) error {
	mem := s.n.mem
	pool := &s.n.pl.pool
	out := pool.get(n)
	lo, hi := s.locks.rangeIdx(off, n)
	s.locks.lockRange(lo, hi)
	copy(*out, mem[off:])
	s.locks.unlockRange(lo, hi)
	rh[0] = stOK
	binary.LittleEndian.PutUint32(rh[1:5], seq)
	binary.LittleEndian.PutUint64(rh[5:13], 0)
	binary.LittleEndian.PutUint32(rh[13:17], uint32(n))
	_, err := bw.Write(rh)
	if err == nil {
		_, err = bw.Write(*out)
	}
	pool.put(out)
	return err
}

// writeInline serves a WRITE by copying straight from the read buffer
// into the region — when the payload is fully buffered this is one copy
// with no intermediate allocation, and the ReadFull under the stripe
// locks is a pure memcpy that cannot touch the socket. Payloads still
// in flight fall back to a pooled staging buffer so the socket read
// happens outside the locks.
func (s *server) writeInline(br *bufio.Reader, bw *bufio.Writer, rh []byte, seq uint32, off uint64, n int) error {
	mem := s.n.mem
	status := stOK
	switch {
	case !inRegion(mem, off, n):
		status = stErrBounds
		if n > 0 {
			if _, err := br.Discard(n); err != nil {
				return err
			}
		}
	case n > 0 && br.Buffered() >= n:
		lo, hi := s.locks.rangeIdx(off, n)
		s.locks.lockRange(lo, hi)
		_, err := io.ReadFull(br, mem[off:off+uint64(n)])
		s.locks.unlockRange(lo, hi)
		if err != nil {
			return err
		}
	case n > 0:
		pool := &s.n.pl.pool
		p := pool.get(n)
		if _, err := io.ReadFull(br, *p); err != nil {
			pool.put(p)
			return err
		}
		lo, hi := s.locks.rangeIdx(off, n)
		s.locks.lockRange(lo, hi)
		copy(mem[off:], *p)
		s.locks.unlockRange(lo, hi)
		pool.put(p)
	}
	rh[0] = status
	binary.LittleEndian.PutUint32(rh[1:5], seq)
	binary.LittleEndian.PutUint64(rh[5:13], 0)
	binary.LittleEndian.PutUint32(rh[13:17], 0)
	_, err := bw.Write(rh)
	return err
}

// inRegion reports whether [off, off+n) lies inside mem, without the
// wrap-around an off near 2^64 would give off+n.
func inRegion(mem []byte, off uint64, n int) bool {
	return off <= uint64(len(mem)) && uint64(n) <= uint64(len(mem))-off
}

// apply executes an RPC or atomic verb; READ and WRITE are served by
// the inline paths above. Atomics run under the stripes their word
// overlaps (plus the shared side of the exclusive bracket).
func (s *server) apply(op uint8, off uint64, payload []byte) (uint8, uint64, []byte) {
	if op == opRPC {
		pl := s.n.pl
		pl.mu.Lock()
		h := s.n.handler
		pl.mu.Unlock()
		if h == nil {
			return stErrNoHandler, 0, nil
		}
		if len(payload) < 1 {
			return stErrBadFrame, 0, nil
		}
		resp, _ := h(payload[0], payload[1:])
		return stOK, 0, resp
	}
	// The region slice is stable for the server's lifetime: Fail only
	// drops it after close() has joined every connection goroutine.
	mem := s.n.mem
	switch op {
	case opCAS:
		if off%8 != 0 {
			return stErrUnaligned, 0, nil
		}
		if !inRegion(mem, off, 8) || len(payload) != 16 {
			return stErrBounds, 0, nil
		}
		old := binary.LittleEndian.Uint64(payload[:8])
		new := binary.LittleEndian.Uint64(payload[8:])
		lo, hi := s.locks.rangeIdx(off, 8)
		s.locks.lockRange(lo, hi)
		cur := binary.LittleEndian.Uint64(mem[off:])
		if cur == old {
			binary.LittleEndian.PutUint64(mem[off:], new)
		}
		s.locks.unlockRange(lo, hi)
		return stOK, cur, nil
	case opFAA:
		if off%8 != 0 {
			return stErrUnaligned, 0, nil
		}
		if !inRegion(mem, off, 8) || len(payload) != 8 {
			return stErrBounds, 0, nil
		}
		delta := binary.LittleEndian.Uint64(payload)
		lo, hi := s.locks.rangeIdx(off, 8)
		s.locks.lockRange(lo, hi)
		cur := binary.LittleEndian.Uint64(mem[off:])
		binary.LittleEndian.PutUint64(mem[off:], cur+delta)
		s.locks.unlockRange(lo, hi)
		return stOK, cur, nil
	}
	return stErrBadFrame, 0, nil
}
