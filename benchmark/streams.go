package main

import (
	"fmt"
	"strconv"

	"repro/internal/workload"
)

// opStream is one client's pre-generated operations: kinds, key
// indices and the rendered keys in one arena, so that the timed loop
// neither draws random numbers nor formats keys.
type opStream struct {
	kinds []workload.Kind
	keys  []uint64
	arena []byte // keyLen bytes per op
}

func (s *opStream) key(i int) []byte { return s.arena[i*keyLen : (i+1)*keyLen] }

// genStreams draws every client's operations from seed. Client c's
// generator seed carries c in its low 16 bits, which is what MixGen
// uses to give each generator a disjoint range of keys to INSERT.
// deleted is the set of keys some stream deletes: only for those is
// ErrNotFound an acceptable answer.
func genStreams(p *plan, seed int64) (streams []opStream, deleted map[uint64]bool, err error) {
	deleted = make(map[uint64]bool)
	n := p.opsPerClient()
	for c := 0; c < p.clients; c++ {
		g := workload.NewMixGen(p.Mix, uint64(p.keys), seed<<16|int64(c))
		s := opStream{
			kinds: make([]workload.Kind, n),
			keys:  make([]uint64, n),
			arena: make([]byte, 0, n*keyLen),
		}
		for i := 0; i < n; i++ {
			op := g.Next()
			if len(op.Key) != keyLen {
				return nil, nil, fmt.Errorf("key %q is not %d bytes", op.Key, keyLen)
			}
			k, err := strconv.ParseUint(string(op.Key[len("user"):]), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("key %q: %w", op.Key, err)
			}
			s.kinds[i], s.keys[i] = op.Kind, k
			s.arena = append(s.arena, op.Key...)
			if op.Kind == workload.OpDelete {
				deleted[k] = true
			}
		}
		streams = append(streams, s)
	}
	return streams, deleted, nil
}
