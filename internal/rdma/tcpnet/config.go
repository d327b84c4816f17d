package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// ErrNoConfig is FetchConfig's error for a node that answered but
// whose process published no configuration.
var ErrNoConfig = errors.New("tcpnet: node publishes no configuration")

// maxConfigBytes bounds a fetched configuration, so a peer that is not
// a tcpnet server cannot make FetchConfig allocate what it claims.
const maxConfigBytes = 1 << 20

// PublishConfig sets the bytes every node this process serves answers
// a configuration request with, below any RPC handler: a daemon
// publishes the cluster configuration it was started with, so that a
// client derives its layout from the cluster rather than from flags of
// its own. Publish before the first AddMemNode, so that no request
// finds the node serving without it.
func (pl *Platform) PublishConfig(b []byte) {
	c := append([]byte(nil), b...)
	pl.config.Store(&c)
}

// FetchConfig asks the node listening at addr for its published
// configuration: one dial and one exchange, each bounded by timeout,
// with no retry.
func FetchConfig(addr string, timeout time.Duration) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	var hdr [hdrSize]byte
	hdr[0] = opConfig
	if _, err := conn.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[13:17])
	switch {
	case hdr[0] == stErrNoConfig:
		return nil, ErrNoConfig
	case hdr[0] != stOK:
		return nil, fmt.Errorf("tcpnet: config request to %s: status %d", addr, hdr[0])
	case n > maxConfigBytes:
		return nil, fmt.Errorf("tcpnet: config from %s is %d bytes, over %d", addr, n, maxConfigBytes)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(conn, b); err != nil {
		return nil, err
	}
	return b, nil
}
