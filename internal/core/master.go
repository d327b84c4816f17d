package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// Master is the reliable coordinator the failure model assumes (§2.1):
// it runs the lease-based membership service, triggers checkpoint
// rounds, and orchestrates MN recovery onto spare nodes. Its own fault
// tolerance (state-machine replication) is out of scope, as in the
// paper.
type Master struct {
	cl   *Cluster
	node rdma.NodeID

	mu     sync.Mutex
	round  uint64
	spares []rdma.NodeID
	failQ  []int
	// abortedRounds counts checkpoint rounds that took no snapshot
	// because an alive MN never acknowledged the prepare (ckptLoop).
	abortedRounds uint64
	// halted ends the loops (Cluster.Stop).
	halted bool
	// Reports collects recovery reports for harness inspection.
	Reports []*RecoveryReport
	// DetectDelay models the membership service's failure-detection
	// latency (lease expiry + notification).
	DetectDelay time.Duration
}

func newMaster(cl *Cluster, node rdma.NodeID) *Master {
	return &Master{cl: cl, node: node, DetectDelay: time.Millisecond}
}

// AddSpare registers an idle memory node the master may use to replace
// a crashed MN.
func (m *Master) AddSpare() rdma.NodeID {
	node := m.cl.pl.AddMemNode(rdma.MemNodeConfig{MemBytes: m.cl.L.MemBytes(), CPUCores: rdma.NumMNCores})
	m.mu.Lock()
	m.spares = append(m.spares, node)
	m.mu.Unlock()
	return node
}

func (m *Master) start() {
	m.cl.spawnDaemon(m.node, "master-ckpt", m.ckptLoop)
	m.cl.spawnDaemon(m.node, "master-recovery", m.recoveryLoop)
}

func (m *Master) isHalted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.halted
}

// ckptPrepareAttempts bounds how often one round's prepare is sent to an
// MN that does not acknowledge it, and ckptPrepareRetry paces the
// attempts on the fabric clock.
const (
	ckptPrepareAttempts = 3
	ckptPrepareRetry    = 100 * time.Microsecond
)

// ckptLoop drives checkpoint rounds at the configured interval using
// the two-phase trigger, and the two phases are a barrier: snapshot(r)
// goes out only once every MN the view calls alive has acknowledged
// prepare(r), because recovery skips every sealed block whose version
// is not above its checkpoint's (DESIGN.md §3, handleCkptPrepare). A
// round that cannot get there takes no snapshot anywhere; the versions
// it did raise are harmless.
func (m *Master) ckptLoop(ctx rdma.Ctx) {
	for {
		ctx.Sleep(m.cl.Cfg.CkptInterval)
		m.mu.Lock()
		if m.halted {
			m.mu.Unlock()
			return
		}
		m.round++
		round := m.round
		m.mu.Unlock()
		var e enc
		e.u64(round)
		if silent := m.prepareRound(ctx, e.b); silent >= 0 {
			m.mu.Lock()
			m.abortedRounds++
			m.mu.Unlock()
			// Periodic lane: a silent MN aborts every round until the
			// view drops it, and must not evict the failure's own events.
			m.cl.trace.EmitPeriodic(obs.Event{At: ctx.Now(), Kind: "ckpt.round_aborted", MN: silent,
				Note: fmt.Sprintf("round=%d: prepare unacknowledged, no snapshot taken", round)})
			continue
		}
		for mn := 0; mn < m.cl.Cfg.Layout.NumMNs; mn++ {
			if node, alive := m.cl.view.nodeOf(mn); alive {
				ctx.RPC(node, methodCkptSnapshot, e.b) //nolint:errcheck // a missed snapshot leaves that MN's copy at an older round
			}
		}
	}
}

// prepareRound sends prepare to every alive MN until each has
// acknowledged it, and returns -1, or the first MN that is still alive
// and still silent after ckptPrepareAttempts. An MN the view calls
// failed seals nothing, and its replacement starts above the round
// (runRecovery), so neither needs the prepare.
func (m *Master) prepareRound(ctx rdma.Ctx, req []byte) (silent int) {
	acked := make([]bool, m.cl.Cfg.Layout.NumMNs)
	for attempt := 1; ; attempt++ {
		silent = -1
		for mn := range acked {
			node, alive := m.cl.view.nodeOf(mn)
			if acked[mn] || !alive {
				continue
			}
			resp, err := ctx.RPC(node, methodCkptPrepare, req)
			acked[mn] = err == nil && len(resp) > 0 && resp[0] == stOK
			if !acked[mn] && silent < 0 {
				silent = mn
			}
		}
		if silent < 0 || attempt == ckptPrepareAttempts {
			return silent
		}
		ctx.Sleep(ckptPrepareRetry)
	}
}

// recoveryLoop watches for failure notifications and re-serves crashed
// MNs on spare nodes.
func (m *Master) recoveryLoop(ctx rdma.Ctx) {
	for {
		ctx.Sleep(m.DetectDelay)
		m.mu.Lock()
		if m.halted {
			m.mu.Unlock()
			return
		}
		if len(m.failQ) == 0 || len(m.spares) == 0 {
			m.mu.Unlock()
			continue
		}
		mn := m.failQ[0]
		m.failQ = m.failQ[1:]
		spare := m.spares[0]
		m.spares = m.spares[1:]
		m.mu.Unlock()
		m.cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "fail.detect", MN: mn,
			Note: fmt.Sprintf("recovering onto node %d", spare)})
		if m.cl.pl.Memory(spare) == nil {
			// The spare itself died while idle; try the next one.
			m.mu.Lock()
			m.failQ = append([]int{mn}, m.failQ...)
			m.mu.Unlock()
			continue
		}
		m.recoverOnto(ctx, mn, spare)
	}
}

// recoverOnto starts a new server for logical MN mn on the spare node
// and runs tiered recovery there (§3.4.1). The master blocks until the
// Index Area is back (functionality restored); tier 3 continues in the
// background on the new node.
func (m *Master) recoverOnto(ctx rdma.Ctx, mn int, spare rdma.NodeID) {
	cl := m.cl
	cl.view.mu.Lock()
	cl.view.node[mn] = spare
	cl.view.mu.Unlock()

	cl.pl.Spawn(spare, "recover-mn", func(rctx rdma.Ctx) {
		rep := runRecovery(rctx, cl, mn)
		if rep == nil {
			return // the spare itself died mid-recovery
		}
		m.mu.Lock()
		m.Reports = append(m.Reports, rep)
		m.mu.Unlock()
	})
	// Wait (politely, in virtual time) for tier-2 completion before
	// accepting the next failure. If the spare itself fail-stops, give
	// up on this attempt — FailMN has already re-queued the logical MN
	// and a later loop iteration retries with another spare.
	for !m.isHalted() {
		ctx.Sleep(500 * time.Microsecond)
		node, failed, idxReady, _ := cl.view.snapshotMN(mn)
		if !failed && idxReady {
			return
		}
		if node != spare || cl.pl.Memory(spare) == nil {
			return
		}
	}
}

// FailMN injects a fail-stop MN crash: the node's memory is lost, its
// server daemons stop, clients see ErrNodeFailed, and the master is
// notified (as the lease-based membership service would, §3.4).
func (cl *Cluster) FailMN(mn int) {
	// Read the server and node under view.mu (recovery publishes the
	// replacement server under the same lock), and mark the MN failed
	// before tearing anything down so clients stop targeting it first.
	cl.view.mu.Lock()
	srv := cl.servers[mn]
	node := cl.view.node[mn]
	cl.view.failed[mn] = true
	cl.view.indexReady[mn] = false
	cl.view.blocksReady[mn] = false
	cl.view.epoch++
	cl.view.mu.Unlock()
	srv.stop()
	cl.pl.Fail(node)
	if cl.master != nil {
		cl.master.mu.Lock()
		cl.master.failQ = append(cl.master.failQ, mn)
		cl.master.mu.Unlock()
	}
}

// viewSnapshot is used by recovery code to detect that its own node
// was re-assigned or fail-stopped.
func (v *view) nodeIs(mn int, node rdma.NodeID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.node[mn] == node
}

// ReportList returns a snapshot of the recovery reports collected so
// far. On wall-clock fabrics the Reports field itself races with the
// recovery process; harnesses must use this accessor instead.
func (m *Master) ReportList() []*RecoveryReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*RecoveryReport(nil), m.Reports...)
}

// Round returns the last checkpoint round the master started. It is
// incremented before the round's first prepare goes out, so no alive
// MN's Index Version is ever above Round()+1.
func (m *Master) Round() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.round
}

// AbortedRounds returns how many checkpoint rounds took no snapshot
// because an alive MN stayed silent through the prepare phase; each
// left a ckpt.round_aborted event in the cluster trace.
func (m *Master) AbortedRounds() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.abortedRounds
}

// recovering reports whether failed MN mn will be re-served: it is
// queued with a spare to take it, or being recovered onto a live one.
func (m *Master) recovering(mn int) bool {
	node, failed, _, _ := m.cl.view.snapshotMN(mn)
	m.mu.Lock()
	defer m.mu.Unlock()
	return failed && (len(m.spares) > 0 && slices.Contains(m.failQ, mn) || m.cl.pl.Memory(node) != nil)
}

// MNState reports a logical MN's recovery state (for harnesses).
func (cl *Cluster) MNState(mn int) (failed, indexReady, blocksReady bool) {
	_, f, i, b := cl.view.snapshotMN(mn)
	return f, i, b
}
