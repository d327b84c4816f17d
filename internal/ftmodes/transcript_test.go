package ftmodes

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/fusee"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/swarm"
)

// The replication transcript: one scripted scenario per replication
// mode whose every operation is pinned by (virtual completion time,
// cumulative Counters(), result). The fabric clock is deterministic and
// advances only with the verbs a client issues, so a change that keeps
// the verb sequence — same verbs, same order, same sizes, same sleeps —
// keeps every row, and one that does not moves the first row it
// touches.

const (
	scriptMNs    = 5
	scriptVictim = 2
	// scriptSlot spaces the steps on the virtual clock; it is longer
	// than an operation that spins through every retry with back-off
	// (~0.3 s), so steps overlap only where the script says so.
	scriptSlot = time.Second
)

type scriptStep struct {
	slot   int
	client int
	op     string // INS, UPD, GET, DEL
	key    string // label into the scenario's key table
	val    []byte
}

// keyIn returns the first key of the key(i) series, from *next on, whose
// index partition is p.
func keyIn(p int, next *int) []byte {
	for {
		k := key(*next)
		*next++
		if racehash.HomeMN(racehash.Hash(k), scriptMNs) == p {
			return k
		}
	}
}

// replicationScript builds the scenario. Client c has id c+1 and keeps
// its open blocks on MNs id, id+1, id+2 (mod 5), so with MN 2 as the
// victim client 1's pairs have their first copy there, client 0's their
// second, client 2's none; the key's partition decides, independently,
// which index replica is lost.
func replicationScript() (keys map[string][]byte, steps []scriptStep, failSlot int) {
	next := 0
	keys = map[string][]byte{
		"pri":  keyIn(scriptVictim, &next),   // primary index replica on the victim; copy 1 too (client 0 inserts)
		"bak":  keyIn(scriptVictim-2, &next), // last index replica on the victim; copy 0 too (client 1 inserts)
		"cp0":  keyIn(scriptVictim+1, &next), // index untouched, copy 0 on the victim (client 1 inserts)
		"none": keyIn(scriptVictim+1, &next), // nothing on the victim (client 2 inserts)
		"grow": keyIn(scriptVictim+2, &next),
		"del":  keyIn(scriptVictim+2, &next),
		"race": keyIn(scriptVictim-1, &next),
		"late": keyIn(scriptVictim-1, &next), // inserted after the failure
		"miss": []byte("never-inserted"),
	}
	slot := 0
	seq := func(client int, op, k string, v []byte) {
		steps = append(steps, scriptStep{slot, client, op, k, v})
		slot++
	}
	gen := 0
	v := func() []byte { gen++; return val(gen, gen) }
	big := bytes.Repeat([]byte("B"), 600)

	// Inserts.
	seq(0, "INS", "pri", v())
	seq(1, "INS", "bak", v())
	seq(1, "INS", "cp0", v())
	seq(2, "INS", "none", v())
	seq(0, "INS", "grow", []byte("small"))
	seq(0, "INS", "del", v())
	seq(2, "INS", "race", v())
	// A cold GET, the same GET cached, a GET by the inserter.
	seq(1, "GET", "pri", nil)
	seq(1, "GET", "pri", nil)
	seq(0, "GET", "pri", nil)
	// An update from the inserting client, one from another client, and
	// what the first one's cache makes of it.
	seq(0, "UPD", "pri", v())
	seq(2, "UPD", "pri", v())
	seq(0, "GET", "pri", nil)
	seq(0, "UPD", "pri", v())
	// A value that grows past its class, then shrinks inside it.
	seq(1, "UPD", "grow", big)
	seq(1, "GET", "grow", nil)
	seq(0, "GET", "grow", nil)
	seq(0, "UPD", "grow", []byte("small again"))
	seq(2, "GET", "grow", nil)
	// A delete, GETs of it, deletes of nothing.
	seq(0, "DEL", "del", nil)
	seq(0, "GET", "del", nil)
	seq(2, "GET", "del", nil)
	seq(1, "DEL", "miss", nil)
	seq(1, "GET", "miss", nil)
	// A 3-way update race on one key.
	for c := 0; c < 3; c++ {
		steps = append(steps, scriptStep{slot, c, "UPD", "race", v()})
	}
	slot++
	seq(1, "GET", "race", nil)
	// Every client writes and reads every key it will meet again after
	// the failure, so its cache is as warm as its mode makes it.
	after := []string{"pri", "bak", "cp0", "none", "grow", "race"}
	for _, k := range after {
		for c := 0; c < 3; c++ {
			seq(c, "UPD", k, v())
		}
		for c := 0; c < 3; c++ {
			seq(c, "GET", k, nil)
		}
	}

	failSlot = slot
	slot++

	// The same clients go on. One of them reads first (a GET that meets
	// the failure re-fills its cache entry; the other two enter their
	// update with the entry they had), then two rounds of updates, the
	// second in reverse order so that it ends on a client other than the
	// one the first round ended on, then everybody reads.
	for _, k := range after {
		seq(0, "GET", k, nil)
		for c := 0; c < 3; c++ {
			seq(c, "UPD", k, v())
		}
		for c := 2; c >= 0; c-- {
			seq(c, "UPD", k, v())
		}
		for c := 0; c < 3; c++ {
			seq(c, "GET", k, nil)
		}
	}
	seq(0, "GET", "del", nil)
	seq(1, "INS", "late", v())
	seq(2, "GET", "late", nil)
	seq(2, "UPD", "late", v())
	seq(1, "GET", "late", nil)
	return keys, steps, failSlot
}

// outcome names an operation's result without quoting error text, which
// is free to change.
func outcome(got []byte, err error) string {
	switch {
	case err == nil && got == nil:
		return "ok"
	case err == nil:
		n := len(got)
		if n > 12 {
			got = got[:12]
		}
		return fmt.Sprintf("%q/%d", got, n)
	case errors.Is(err, core.ErrNotFound):
		return "notfound"
	case errors.Is(err, core.ErrRetriesExhausted):
		return "exhausted"
	case errors.Is(err, core.ErrNoSpace):
		return "nospace"
	case errors.Is(err, rdma.ErrNodeFailed):
		return "nodefailed"
	}
	return "error"
}

func replicationTranscript(t *testing.T, mode string) string {
	t.Helper()
	cfg := crossConfig()
	cfg.FTMode = mode
	pl := simnet.New(simnet.DefaultConfig())
	defer pl.Shutdown()
	ft, err := core.OpenFT(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Start(); err != nil {
		t.Fatal(err)
	}
	if ft.NumMNs() != scriptMNs || cfg.ReplicaCount() != 3 {
		t.Fatalf("scenario wants %d MNs and 3 replicas", scriptMNs)
	}
	keys, steps, failSlot := replicationScript()
	rows := make([]string, len(steps))
	cns := []rdma.NodeID{pl.AddComputeNode(), pl.AddComputeNode()}
	done := 0
	for c := 0; c < 3; c++ {
		c := c
		cli := ft.NewClient() // in client order: the id decides block placement and back-off
		pl.Spawn(cns[c%len(cns)], fmt.Sprintf("script%d", c), func(ctx rdma.Ctx) {
			cli.Attach(ctx)
			for i, s := range steps {
				if s.client != c {
					continue
				}
				if at := time.Duration(s.slot) * scriptSlot; ctx.Now() < at {
					ctx.Sleep(at - ctx.Now())
				}
				var got []byte
				var err error
				switch s.op {
				case "INS":
					err = cli.Insert(keys[s.key], s.val)
				case "UPD":
					err = cli.Update(keys[s.key], s.val)
				case "DEL":
					err = cli.Delete(keys[s.key])
				case "GET":
					got, err = cli.Search(keys[s.key])
				}
				cas, rd, wr := cli.Counters()
				rows[i] = fmt.Sprintf("%03d c%d %s %-4s t=%d cas=%d rd=%d wr=%d db=%d %s",
					s.slot, c, s.op, s.key, ctx.Now().Nanoseconds(), cas, rd, wr, doorbells(cli), outcome(got, err))
			}
			cli.Close()
			done++
		})
	}
	pl.Run(time.Duration(failSlot) * scriptSlot)
	ft.FailMN(scriptVictim)
	last := time.Duration(steps[len(steps)-1].slot+2) * scriptSlot
	pl.Run(last)
	if done != 3 {
		t.Fatalf("%d/3 clients finished by %v of virtual time", done, last)
	}
	var b strings.Builder
	for i, r := range rows {
		if steps[i].slot > failSlot && steps[i-1].slot < failSlot {
			fmt.Fprintf(&b, "%03d -- FailMN(%d)\n", failSlot, scriptVictim)
		}
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// doorbells returns the doorbells a replication client has rung.
func doorbells(c ftmode.Client) uint64 {
	switch c := c.(type) {
	case *fusee.Client:
		return c.Stats.Doorbells
	case *swarm.Client:
		return c.Stats.Doorbells
	}
	return 0
}

// TestReplicationTranscriptGolden compares each replication mode's
// transcript of the scripted scenario with the committed one.
func TestReplicationTranscriptGolden(t *testing.T) {
	for _, g := range []struct{ mode, want string }{
		{core.FTModeFusee, goldenFusee},
		{core.FTModeSwarm, goldenSwarm},
	} {
		mode, want := g.mode, strings.TrimPrefix(g.want, "\n")
		t.Run(mode, func(t *testing.T) {
			got := replicationTranscript(t, mode)
			if got == want {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Errorf("first difference at row %d:\n got  %s\n want %s", i, gl[i], wl[i])
					break
				}
			}
			t.Fatalf("transcript of %s differs from the golden one (%d rows, want %d); full transcript:\n%s",
				mode, len(gl), len(wl), got)
		})
	}
}
