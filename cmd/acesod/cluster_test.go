package main

import (
	"bytes"
	"context"
	"net"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdma/tcpnet"
)

// buildCommands builds the named commands of this module into a fresh
// temporary directory and returns it.
func buildCommands(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "repro/cmd/"+n)
	}
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return dir
}

// loopbackAddrs reserves n free loopback addresses.
func loopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// output collects a process's stdout and stderr; the test reads it
// while the process may still be writing.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(b []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(b)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// proc is one started command and its combined output.
type proc struct {
	cmd  *exec.Cmd
	out  output
	done chan struct{}
	err  error // set before done closes
}

// procs starts commands under one context and kills every one still
// running when the test ends.
type procs struct {
	t   *testing.T
	ctx context.Context
	dir string
	mu  sync.Mutex
	all []*proc
}

func newProcs(t *testing.T, ctx context.Context, dir string) *procs {
	ps := &procs{t: t, ctx: ctx, dir: dir}
	t.Cleanup(ps.killAll)
	return ps
}

func (ps *procs) start(stdin string, name string, args ...string) *proc {
	ps.t.Helper()
	p := &proc{cmd: exec.CommandContext(ps.ctx, filepath.Join(ps.dir, name), args...), done: make(chan struct{})}
	p.cmd.Stdin = strings.NewReader(stdin)
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		ps.t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.done) }()
	ps.mu.Lock()
	ps.all = append(ps.all, p)
	ps.mu.Unlock()
	return p
}

// wait returns the process's output and exit error once it exits, or
// fails the test at the context's deadline.
func (ps *procs) wait(p *proc) (string, error) {
	ps.t.Helper()
	select {
	case <-p.done:
		return p.out.String(), p.err
	case <-ps.ctx.Done():
		ps.t.Fatalf("%s did not exit: %v\n%s", p.cmd.Path, ps.ctx.Err(), p.out.String())
		return "", nil
	}
}

// kill ends p and waits for it.
func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // it may have exited
	<-p.done
}

func (ps *procs) killAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.all {
		p.kill()
	}
}

// daemon starts acesod as MN mn of the cluster at addrs and waits until
// it answers a configuration request. If it exits first, it returns
// the process with its exit error set.
func (ps *procs) daemon(addrs []string, mn int, flags ...string) *proc {
	ps.t.Helper()
	args := append([]string{"-mn", strconv.Itoa(mn), "-peers", strings.Join(addrs, ",")}, flags...)
	if mn == 0 {
		args = append(args, "-master")
	}
	p := ps.start("", "acesod", args...)
	for {
		if _, err := tcpnet.FetchConfig(addrs[mn], 100*time.Millisecond); err == nil {
			return p
		}
		select {
		case <-p.done:
			return p
		case <-ps.ctx.Done():
			ps.t.Fatalf("mn%d never served: %v\n%s", mn, ps.ctx.Err(), p.out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cli runs acesocli with only -peers against the cluster and feeds it
// one command a line.
func (ps *procs) cli(addrs []string, lines ...string) (string, error) {
	ps.t.Helper()
	return ps.wait(ps.start(strings.Join(lines, "\n")+"\nquit\n", "acesocli", "-peers", strings.Join(addrs, ",")))
}

// marksFlushed overwrites a key in one acesocli session and checks, in
// the next, that `stats <mn>` counts the overwritten pair's obsolete
// mark on some MN of an aceso cluster, and no DELTA block on any: a
// session that ends closes its client, which flushes the marks it holds
// and seals every block it wrote into. Unflushed, the mark was lost with
// the process, and its slot never counted toward reclaiming its block;
// unsealed, each session's open block kept its DELTA blocks for good.
func (ps *procs) marksFlushed(addrs []string) {
	ps.t.Helper()
	if out, err := ps.cli(addrs, "set alpha uno"); err != nil || strings.Contains(out, "error") {
		ps.t.Fatalf("overwrite: exit %v\n%s", err, out)
	}
	var lines []string
	for mn := range addrs {
		lines = append(lines, "stats "+strconv.Itoa(mn))
	}
	out, err := ps.cli(addrs, lines...)
	// column sums one column of a table of every MN's stats.
	column := func(table, name string) (sum, mns int) {
		rows := strings.Split(out, "\n")
		for i := range rows {
			if strings.Contains(rows[i], table) && i+2 < len(rows) {
				head, vals := strings.Fields(rows[i+1]), strings.Fields(rows[i+2])
				if j := slices.Index(head, name); j >= 0 && j+1 < len(vals) {
					n, _ := strconv.Atoi(vals[j+1])
					sum, mns = sum+n, mns+1
				}
			}
		}
		return sum, mns
	}
	if applied, _ := column("erasure coding / reclamation", "bitsApplied"); err != nil || applied == 0 {
		ps.t.Fatalf("after a session overwrote a key: %d obsolete marks applied on the MNs, want at least 1 (exit %v)\n%s", applied, err, out)
	}
	if deltas, mns := column("delta pool occupancy", "delta"); deltas != 0 || mns != len(addrs) {
		ps.t.Fatalf("after two sessions ended: %d DELTA blocks on %d MNs' stats, want 0 on %d\n%s", deltas, mns, len(addrs), out)
	}
}

// TestClientJoinsWithTheDaemonsConfiguration runs five acesod daemons
// at a time and an acesocli given only -peers: it must set and read
// back keys whatever mode and geometry the daemons were started with,
// refuse a peer list one address short, and a daemon whose -stripes
// differs from a running peer's must exit naming the field. On an aceso
// cluster a session's obsolete marks reach the MNs when it ends, and its
// blocks are sealed.
func TestClientJoinsWithTheDaemonsConfiguration(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ps := newProcs(t, ctx, buildCommands(t, "acesod", "acesocli"))

	for _, c := range []struct {
		name  string
		flags []string
	}{
		{"swarm-inplace", []string{"-ftmode", "swarm-inplace", "-stripes", "48", "-index-bytes", "1048576"}},
		{"aceso", []string{"-ftmode", "aceso", "-stripes", "12", "-index-bytes", "524288", "-block-size", "262144", "-pool", "8"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			addrs := loopbackAddrs(t, 5)
			var cluster []*proc
			for mn := 0; mn < 4; mn++ {
				cluster = append(cluster, ps.daemon(addrs, mn, c.flags...))
			}
			defer func() {
				for _, p := range cluster {
					p.kill()
				}
			}()
			odd := ps.daemon(addrs, 4, append(append([]string(nil), c.flags...), "-stripes", "13")...)
			if out, err := ps.wait(odd); err == nil || !strings.Contains(out, "Layout.StripeRows") {
				t.Fatalf("a daemon with other -stripes: exit %v, want non-zero naming Layout.StripeRows\n%s", err, out)
			}
			cluster = append(cluster, ps.daemon(addrs, 4, c.flags...))
			for mn, p := range cluster {
				select {
				case <-p.done:
					t.Fatalf("mn%d exited: %v\n%s", mn, p.err, p.out.String())
				default:
				}
			}

			out, err := ps.cli(addrs, "set alpha one", "set beta two", "get alpha", "get beta", "stats")
			if err != nil || !strings.Contains(out, "> one\n") || !strings.Contains(out, "> two\n") ||
				strings.Contains(out, "error") || !strings.Contains(out, "ftmode="+c.name) {
				t.Fatalf("acesocli -peers only: exit %v\n%s", err, out)
			}
			if c.name == "aceso" {
				ps.marksFlushed(addrs)
			}
			out, err = ps.cli(addrs[:4], "get alpha")
			if err == nil || !strings.Contains(out, "4 addresses") || !strings.Contains(out, "5 memory nodes") {
				t.Fatalf("acesocli with a peer list one short: exit %v, want an error naming 4 and 5\n%s", err, out)
			}
		})
	}
}
