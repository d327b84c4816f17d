package tcpnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// reqFrame encodes one request frame as a client sends it: header,
// then the payload.
func reqFrame(op uint8, seq uint32, off uint64, payload []byte) []byte {
	b := make([]byte, hdrSize, hdrSize+len(payload))
	b[0] = op
	binary.LittleEndian.PutUint32(b[1:5], seq)
	binary.LittleEndian.PutUint64(b[5:13], off)
	binary.LittleEndian.PutUint32(b[13:17], uint32(len(payload)))
	return append(b, payload...)
}

// FuzzServeConn feeds an arbitrary byte stream to the verb server's
// frame decoder over an in-memory pipe, then hangs up. serveConn must
// not panic, must return (on a malformed or oversized frame, or when
// the stream ends), and must change no byte outside the served region.
func FuzzServeConn(f *testing.F) {
	const region, guard = 4096, 64
	cas := make([]byte, 16)
	binary.LittleEndian.PutUint64(cas[8:], 7)
	faa := make([]byte, 8)
	faa[0] = 3
	// A READ asks for n bytes and carries none: set n by hand.
	rd := reqFrame(opRead, 1, 64, nil)
	binary.LittleEndian.PutUint32(rd[13:17], 32)
	f.Add(rd)
	f.Add(reqFrame(opWrite, 2, 256, []byte("one-sided write payload")))
	f.Add(reqFrame(opCAS, 3, 512, cas))
	f.Add(reqFrame(opFAA, 4, 520, faa))
	f.Add(reqFrame(opRPC, 5, 0, []byte{9, 1, 2, 3}))
	f.Add(reqFrame(opConfig, 9, 0, nil))
	// Offsets whose end wraps past 2^64 must be out of bounds too.
	f.Add(reqFrame(opCAS, 6, ^uint64(7), cas))
	f.Add(reqFrame(opWrite, 7, ^uint64(0), []byte{1, 2}))
	rdWrap := reqFrame(opRead, 8, ^uint64(3), nil)
	binary.LittleEndian.PutUint32(rdWrap[13:17], 8)
	f.Add(rdWrap)

	pl := NewGroup()
	pl.PublishConfig([]byte(`{"published":true}`))
	backing := make([]byte, guard+region+guard)
	for i := range backing {
		backing[i] = byte(i*7 + 1)
	}
	want := append([]byte(nil), backing...)
	n := &memNode{pl: pl, mem: backing[guard : guard+region : guard+region],
		handler: func(method uint8, req []byte) ([]byte, time.Duration) {
			return append([]byte{method}, req...), 0
		}}
	s := &server{n: n, locks: newStripedLocks(region)}
	f.Fuzz(func(t *testing.T, stream []byte) {
		srvEnd, cliEnd := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.serveConn(srvEnd)
		}()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, cliEnd) //nolint:errcheck // ends when the pipe closes
		}()
		cliEnd.Write(stream) //nolint:errcheck // the server may hang up first
		cliEnd.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn did not return after the client hung up")
		}
		<-drained
		if !bytes.Equal(backing[:guard], want[:guard]) || !bytes.Equal(backing[guard+region:], want[guard+region:]) {
			t.Fatal("a frame changed bytes outside the served region")
		}
	})
}
