package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// testOptions runs a workload at 1/100 scale, in-process only.
func testOptions(seed int64, traced bool) options {
	return options{seed: seed, seconds: runSeconds, scale: 0.01, traced: traced, setups: 1, log: io.Discard}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func checkValues(t *testing.T, table []metric, values map[string]float64) {
	t.Helper()
	if len(values) != len(table) {
		t.Errorf("%d values for %d declared metrics", len(values), len(table))
	}
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok {
			t.Errorf("metric %s is declared but not emitted", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", m.Name, v)
		}
	}
}

func TestCatalogueIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q unit %q: bad name or unit", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" || !strings.Contains(m.Name, ".") {
			t.Errorf("%s: per-layer metrics name their layer and what they should move", m.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if findMetric(endToEnd, "setup_s") == nil {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// BENCHMARK.json and the README catalogue are generated from the
// tables; this pins the committed copies to them.
func TestCommittedFilesMatchTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with -benchmark-json")
	}
	var cat bytes.Buffer
	writeCatalogue(&cat)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(readme, cat.Bytes()) {
		t.Error("README.md does not contain the current -list output")
	}
}

func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		t.Run(s.Name, func(t *testing.T) {
			res, err := runWorkload(s, testOptions(1, false))
			if err != nil {
				t.Fatal(err)
			}
			checkValues(t, endToEnd, res.E2E)
			for name, v := range res.E2E {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", name, v)
				}
			}
			if s.Excluded == "" && res.Failed != 0 {
				t.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, res.FirstErr)
			}
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(bytes.NewReader(res.contractLine(false)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
				t.Errorf("contract line is missing keys: %s", res.contractLine(false))
			}
			for name, mv := range line.Metrics {
				if m := findMetric(endToEnd, name); m == nil || mv.Unit != m.Unit || mv.Value == nil {
					t.Errorf("contract line metric %s: %+v", name, mv)
				}
			}
		})
	}
}

// fabValues are the values that must repeat exactly on simnet.
func fabValues(e2e map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, v := range e2e {
		if strings.HasPrefix(name, "fab_") || name == "space_amp" {
			out[name] = v
		}
	}
	return out
}

func TestSimValuesRepeatForASeed(t *testing.T) {
	s := specByName("read-fit-sim")
	a, err := runWorkload(s, testOptions(7, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(s, testOptions(7, false))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fabValues(a.E2E), fabValues(b.E2E)) {
		t.Errorf("same seed, different fabric-clock values:\n%v\n%v", fabValues(a.E2E), fabValues(b.E2E))
	}
}

func TestSeedChangesTheOpStream(t *testing.T) {
	p := specByName("failover-aceso-sim").resolve(runSeconds, 0.01)
	a, _, err := genStreams(&p, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, _, _ := genStreams(&p, 1)
	b, _, _ := genStreams(&p, 2)
	if !reflect.DeepEqual(a, again) {
		t.Error("same seed drew different op streams")
	}
	if reflect.DeepEqual(a[0].keys, b[0].keys) {
		t.Error("different seeds drew the same op stream")
	}
}

// The traced pass carries its own checks — layers sum to the op
// latency, the decorator's verb count equals the clients' Counters(),
// traced fab_* equal untraced fab_* — as guards; they must all hold on
// every mode and fabric.
func TestTracedPassSelfChecks(t *testing.T) {
	for _, name := range []string{"read-fit-sim", "failover-fusee-sim", "failover-swarm-sim", "ycsb-a-tcp"} {
		t.Run(name, func(t *testing.T) {
			opt := testOptions(3, true)
			opt.kernels = false
			res, err := runWorkload(specByName(name), opt)
			if err != nil {
				t.Fatal(err)
			}
			checkValues(t, perLayer, res.Layers)
			checks := 0
			for _, g := range res.Guards {
				if strings.Contains(g, "trace:") {
					checks++
					if !strings.HasPrefix(g, "ok") {
						t.Error(g)
					}
				}
			}
			if checks < 3 {
				t.Errorf("only %d trace self-checks ran: %v", checks, res.Guards)
			}
			if res.Layers["rdma.verbs_per_op"] <= 0 {
				t.Error("the decorator counted no verbs")
			}
		})
	}
}

func TestKernelsFillEveryKernelMetric(t *testing.T) {
	defer func(d time.Duration) { kernelSlice = d }(kernelSlice)
	kernelSlice = 2 * time.Millisecond
	v := map[string]float64{}
	kernelValues(v)
	if len(v) < 24 {
		t.Errorf("only %d kernel metrics", len(v))
	}
	for name, val := range v {
		if findMetric(perLayer, name) == nil {
			t.Errorf("kernel metric %s is not declared", name)
		}
		if val <= 0 || math.IsInf(val, 0) || math.IsNaN(val) {
			t.Errorf("%s = %v", name, val)
		}
	}
}

// fakeKV is a store whose answers the test controls.
type fakeKV map[string][]byte

func (f fakeKV) Search(key []byte) ([]byte, error) {
	v, ok := f[string(key)]
	if !ok {
		return nil, core.ErrNotFound
	}
	return v, nil
}
func (f fakeKV) Insert(key, val []byte) error {
	f[string(key)] = append([]byte(nil), val...)
	return nil
}
func (f fakeKV) Update(key, val []byte) error { return f.Insert(key, val) }
func (f fakeKV) Delete(key []byte) error      { delete(f, string(key)); return nil }
func (f fakeKV) Close()                       {}

func TestVerifierRejectsWrongValues(t *testing.T) {
	const size = 256
	val := func(key uint64, st stamp) []byte {
		b := make([]byte, size)
		fillValue(b, key, st)
		return b
	}
	// Client 0 updated key 1 twice and deleted key 2; key 0 and key 3
	// still hold the preload.
	ledgers := []ledger{{1: {st: stamp{writer: 1, seq: 2}}, 2: {deleted: true}}, {}}
	good := fakeKV{}
	good.Insert(workload.KeyName(0), val(0, stamp{}))
	good.Insert(workload.KeyName(1), val(1, stamp{writer: 1, seq: 2}))
	good.Insert(workload.KeyName(3), val(3, stamp{}))
	keys := sweepKeys(4, ledgers)
	if bad, err := sweep(good, keys, size, ledgers); bad != 0 {
		t.Fatalf("a correct store fails the sweep: %d bad, first %v", bad, err)
	}

	cases := []struct {
		name   string
		break_ func(f fakeKV)
		want   error
	}{
		{"corrupted", func(f fakeKV) { f[string(workload.KeyName(0))][100] ^= 1 }, errCorrupt},
		{"cross-key", func(f fakeKV) { f.Insert(workload.KeyName(0), val(3, stamp{})) }, errCrossKey},
		{"stale", func(f fakeKV) { f.Insert(workload.KeyName(1), val(1, stamp{writer: 1, seq: 1})) }, nil},
		{"lost", func(f fakeKV) { f.Delete(workload.KeyName(3)) }, nil},
		{"undeleted", func(f fakeKV) { f.Insert(workload.KeyName(2), val(2, stamp{})) }, nil},
	}
	for _, c := range cases {
		f := fakeKV{}
		for k, v := range good {
			f[k] = append([]byte(nil), v...)
		}
		c.break_(f)
		bad, err := sweep(f, keys, size, ledgers)
		if bad != 1 {
			t.Errorf("%s: sweep found %d bad keys, want 1 (%v)", c.name, bad, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: sweep reported %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := parseValue(val(5, stamp{})[:size-1], 5, size); !errors.Is(err, errCorrupt) {
		t.Errorf("a truncated value parses: %v", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, kops float64, failed int64) string {
		r := &record{Workloads: []*workloadResult{{Name: "read-fit-sim", Attempted: 1000, Failed: failed,
			E2E: map[string]float64{"host_kops": kops, "fab_get_mean_us": 3.4}}}}
		path := dir + "/" + name
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 100, 0)
	for _, c := range []struct {
		name      string
		new       []string
		wantWorse bool
		wantWord  string
	}{
		{"same", []string{write("same.json", 95, 0)}, false, "same"},
		{"worse", []string{write("slow.json", 70, 0)}, true, "worse"},
		{"better", []string{write("fast.json", 130, 0)}, false, "better"},
		{"fails", []string{write("fails.json", 100, 1)}, true, "worse"},
		{"unresolved", []string{write("n1.json", 60, 0), write("n2.json", 100, 0), write("n3.json", 140, 0), write("n4.json", 180, 0)}, false, "unresolved"},
	} {
		var out bytes.Buffer
		worse, err := compareRecords(&out, []string{base}, c.new)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse || !strings.Contains(out.String(), c.wantWord) {
			t.Errorf("%s: worse=%v, output:\n%s", c.name, worse, out.String())
		}
	}
}
