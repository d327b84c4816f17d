package bench

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// quickResults memoises Quick-mode runs per experiment id for the life
// of the test binary, so an experiment a shape test asserts on is not
// run a second time by TestQuickSmoke (tab2 alone is 8 s). Tests in
// this package do not run in parallel.
var quickResults = map[string]*Result{}

func runQuick(t *testing.T, id string) *Result {
	t.Helper()
	if res := quickResults[id]; res != nil {
		return res
	}
	res, err := Run(id, Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickResults[id] = res
	return res
}

// TestQuickSmoke runs every registered experiment in Quick mode: the
// whole evaluation pipeline must produce a table without errors.
func TestQuickSmoke(t *testing.T) {
	if len(IDs()) != len(registry) {
		t.Fatalf("IDs() lists %d of %d registered experiments: add the missing id to canonicalOrder", len(IDs()), len(registry))
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res := runQuick(t, id)
			if len(res.Series) == 0 {
				t.Fatalf("%s: no series", id)
			}
			txt := res.Text()
			if len(txt) == 0 {
				t.Fatalf("%s: empty text", id)
			}
			t.Log("\n" + txt)
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	res := &Result{ID: "x", Title: "t"}
	s1 := &stats.Series{Name: "a,b"}
	s1.Add("c1", 1.5)
	s1.Add("c2", 2)
	res.Series = append(res.Series, s1)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "series,c1,c2\n\"a,b\",1.5,2\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

// TestOnePopulationPerRun pins the single client population of a run:
// a preload and a timed phase drive the same Clients clients, so the
// next identity the cluster hands out is Clients+1.
func TestOnePopulationPerRun(t *testing.T) {
	o := Options{Clients: 4, CNs: 2, OpsPerClient: 20, KVSize: 128}
	r, err := newAcesoRun(o, acesoConfig(o, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.shutdown()
	if err := preloadMicro(r, o.Clients, o.OpsPerClient, o.KVSize); err != nil {
		t.Fatal(err)
	}
	gens := microGens(workload.OpSearch, o.Clients, o.OpsPerClient)
	if _, err := runPhase(r, gens, 0, o.OpsPerClient, o.KVSize, time.Minute); err != nil {
		t.Fatal(err)
	}
	if got, want := int(r.cl.NewClient().ID()), o.Clients+1; got != want {
		t.Errorf("next client id %d after a preload and a timed phase of %d clients, want %d", got, o.Clients, want)
	}
}
