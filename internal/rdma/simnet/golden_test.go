package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rdma"
)

// TestSimnetTranscriptGolden pins the fabric clock of every verb shape
// the store uses: four client processes on two compute nodes against
// two memory nodes issue reads, 1 KB writes, contended CAS, an
// 8-element ordered batch, an unsignaled Post and an RPC, and every
// completion time and fetched value must match the committed
// transcript. It is the verb-level twin of sim's TestEngineOrderGolden:
// a simulator change that is only faster leaves it untouched.
func TestSimnetTranscriptGolden(t *testing.T) {
	pl := New(DefaultConfig())
	defer pl.Shutdown()
	mns := []rdma.NodeID{
		pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20, CPUCores: rdma.NumMNCores}),
		pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20, CPUCores: rdma.NumMNCores}),
	}
	cns := []rdma.NodeID{pl.AddComputeNode(), pl.AddComputeNode()}
	for _, mn := range mns {
		pl.SetHandler(mn, func(method uint8, req []byte) ([]byte, time.Duration) {
			return append([]byte{method}, req...), 2 * time.Microsecond
		})
	}
	var log []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("client%d", i)
		pl.Spawn(cns[i%2], name, func(c rdma.Ctx) {
			say := func(format string, args ...interface{}) {
				log = append(log, fmt.Sprintf("%d %s %s", c.Now()/time.Nanosecond, name, fmt.Sprintf(format, args...)))
			}
			check := func(what string, err error) {
				if err != nil {
					t.Errorf("%s %s: %v", name, what, err)
				}
			}
			home, away := mns[i%2], mns[(i+1)%2]
			mine := uint64(i) * 8192
			kb, buf := make([]byte, 1024), make([]byte, 64)
			for j := range kb {
				kb[j] = byte(i + j)
			}

			check("write", c.Write(rdma.GlobalAddr{Node: home, Off: mine}, kb))
			say("wrote 1 KB")
			check("read", c.Read(buf, rdma.GlobalAddr{Node: home, Off: mine + 960}))
			say("read 64 B, last byte %d", buf[63])

			// All four race for one word: each retries from the value it
			// fetched until its own swap lands.
			word := rdma.GlobalAddr{Node: mns[0], Off: 512 << 10}
			for old := uint64(0); ; {
				prev, err := c.CAS(word, old, old+uint64(i)+1)
				check("cas", err)
				say("cas old %d fetched %d", old, prev)
				if prev == old {
					break
				}
				old = prev
			}
			prev, err := c.FAA(word.Add(8), 10)
			check("faa", err)
			say("faa fetched %d", prev)

			// Six reads across both MNs, a write, and a CAS in the tail.
			ops := make([]rdma.Op, 8)
			for j := 0; j < 6; j++ {
				ops[j] = rdma.Op{Kind: rdma.OpRead, Addr: rdma.GlobalAddr{Node: mns[j%2], Off: uint64(j) * 64}, Buf: make([]byte, 64<<(j%3))}
			}
			ops[6] = rdma.Op{Kind: rdma.OpWrite, Addr: rdma.GlobalAddr{Node: away, Off: mine + 4096}, Buf: kb[:256]}
			ops[7] = rdma.Op{Kind: rdma.OpCAS, Addr: word.Add(16), Old: uint64(i), New: uint64(i) + 1}
			check("batch", c.Batch(ops))
			say("batch of 8, tail cas fetched %d", ops[7].Result)

			check("post", c.Post([]rdma.Op{
				{Kind: rdma.OpWrite, Addr: rdma.GlobalAddr{Node: away, Off: mine + 2048}, Buf: kb[:128]},
				{Kind: rdma.OpWrite, Addr: rdma.GlobalAddr{Node: home, Off: mine + 2048}, Buf: kb[:8]},
			}))
			say("posted 2 writes")

			resp, err := c.RPC(away, uint8(i), kb[:32])
			check("rpc", err)
			say("rpc returned %d bytes", len(resp))
			c.UseCPU(0, 700*time.Nanosecond)
			say("used cpu")
		})
	}
	pl.Engine().RunUntilIdle()

	want := strings.Split(strings.TrimSpace(simnetTranscript), "\n")
	for i := 0; i < len(log) || i < len(want); i++ {
		var g, w string
		if i < len(log) {
			g = log[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("transcript diverges at line %d: got %q, want %q\nfull transcript:\n%s", i+1, g, w, strings.Join(log, "\n"))
		}
	}
}

const simnetTranscript = `
3346 client0 wrote 1 KB
3346 client1 wrote 1 KB
3592 client2 wrote 1 KB
3592 client3 wrote 1 KB
6555 client0 read 64 B, last byte 255
6555 client1 read 64 B, last byte 0
6801 client2 read 64 B, last byte 1
6801 client3 read 64 B, last byte 2
10156 client0 cas old 0 fetched 0
10657 client1 cas old 0 fetched 1
11158 client2 cas old 0 fetched 1
11659 client3 cas old 0 fetched 1
13757 client0 faa fetched 0
14258 client1 cas old 1 fetched 1
14759 client2 cas old 1 fetched 3
15260 client3 cas old 1 fetched 3
17721 client0 batch of 8, tail cas fetched 0
17851 client0 posted 2 writes
18222 client1 faa fetched 10
18723 client2 cas old 3 fetched 3
19224 client3 cas old 3 fetched 6
22322 client1 batch of 8, tail cas fetched 1
22452 client1 posted 2 writes
22823 client2 faa fetched 20
23324 client3 cas old 6 fetched 6
25657 client0 rpc returned 33 bytes
26357 client0 used cpu
26787 client2 batch of 8, tail cas fetched 2
26917 client2 posted 2 writes
27288 client3 faa fetched 30
31388 client3 batch of 8, tail cas fetched 3
31492 client1 rpc returned 33 bytes
31518 client3 posted 2 writes
32192 client1 used cpu
34723 client2 rpc returned 33 bytes
35423 client2 used cpu
37330 client3 rpc returned 33 bytes
38030 client3 used cpu
`
