package bench

import "testing"

// These tests pin the qualitative results of the paper — who wins and
// in what direction — at smoke scale, so a regression in the store or
// the cost model that flips a headline conclusion fails CI rather than
// silently producing a wrong EXPERIMENTS.md.

func TestShapeFig1aReplicationDegradesWrites(t *testing.T) {
	res := runQuick(t, "fig1a")
	find := func(name string) []float64 {
		for _, s := range res.Series {
			if s.Name == name {
				return s.Values
			}
		}
		t.Fatalf("missing series %s", name)
		return nil
	}
	for _, op := range []string{"UPDATE Mops", "INSERT Mops", "DELETE Mops"} {
		v := find(op)
		if !(v[0] > v[1] && v[1] > v[2]) {
			t.Errorf("%s does not degrade with replicas: %v", op, v)
		}
		if v[2] > v[0]*0.75 {
			t.Errorf("%s at r=3 only %.0f%% below r=1; replication cost missing", op, (1-v[2]/v[0])*100)
		}
	}
	search := find("SEARCH Mops")
	if search[2] < search[0]*0.9 {
		t.Errorf("SEARCH should be replica-insensitive: %v", search)
	}
	cas := find("UPDATE CAS/op")
	if cas[0] < 0.9 || cas[0] > 1.1 || cas[2] < 2.9 || cas[2] > 3.2 {
		t.Errorf("UPDATE CAS counts wrong: %v (want ~1 at r=1, ~3 at r=3)", cas)
	}
}

func TestShapeFig8AcesoWinsWrites(t *testing.T) {
	res := runQuick(t, "fig8")
	var norm []float64
	var labels []string
	for _, s := range res.Series {
		if s.Name == "normalized" {
			norm = s.Values
			labels = s.Labels
		}
	}
	for i, lbl := range labels {
		switch lbl {
		case "INSERT", "UPDATE", "DELETE":
			if norm[i] < 1.3 {
				t.Errorf("%s normalized %.2f, want >= 1.3 (paper: up to 2.67)", lbl, norm[i])
			}
		case "SEARCH":
			if norm[i] < 0.9 {
				t.Errorf("SEARCH normalized %.2f, want >= 0.9", norm[i])
			}
		}
	}
}

func TestShapeFig9AcesoCutsLatency(t *testing.T) {
	res := runQuick(t, "fig9")
	vals := map[string][]float64{}
	for _, s := range res.Series {
		vals[s.Name] = s.Values
	}
	// UPDATE is column 1 in the microKinds order.
	if vals["Aceso P50"][1] >= vals["FUSEE P50"][1] {
		t.Errorf("Aceso UPDATE P50 (%v) not below FUSEE (%v)", vals["Aceso P50"][1], vals["FUSEE P50"][1])
	}
	if vals["Aceso P99"][1] >= vals["FUSEE P99"][1] {
		t.Errorf("Aceso UPDATE P99 (%v) not below FUSEE (%v)", vals["Aceso P99"][1], vals["FUSEE P99"][1])
	}
}

func TestShapeFig12SpaceSaving(t *testing.T) {
	res := runQuick(t, "fig12")
	var aceso, fusee float64
	for _, s := range res.Series {
		if s.Name == "Total" {
			aceso, fusee = s.Values[0], s.Values[1]
		}
	}
	saving := 1 - aceso/fusee
	if saving < 0.2 {
		t.Errorf("space saving %.0f%%, want >= 20%% (paper: 44%%)", saving*100)
	}
}

// TestShapeTab2RecoveryEquivalence pins the non-timing half of Table 2:
// recovery under the XOR code walks exactly the same block and KV
// population as under RS (same metadata, same scan), and both kernels
// report positive throughput. Wall-clock superiority of the XOR kernel
// is no longer asserted here — timing comparisons were flaky under
// load and inverted under race instrumentation; the erasure package's
// count-based cost-model test (TestXorCostModelBeatsRS) plus the CI
// benchmark job cover the performance claim.
func TestShapeTab2RecoveryEquivalence(t *testing.T) {
	res := runQuick(t, "tab2")
	get := func(name, col string) float64 {
		for _, s := range res.Series {
			if s.Name != name {
				continue
			}
			for i, lbl := range s.Labels {
				if lbl == col {
					return s.Values[i]
				}
			}
		}
		t.Fatalf("missing %s/%s", name, col)
		return 0
	}
	for _, col := range []string{"LBlk#", "RBlk#", "KV#", "OldLBlk#"} {
		x, r := get("xor", col), get("rs", col)
		if x != r {
			t.Errorf("%s differs between codes: xor %.0f, rs %.0f", col, x, r)
		}
	}
	if get("xor", "KV#") <= 0 {
		t.Error("recovery scanned no KVs; the experiment lost its workload")
	}
	for _, code := range []string{"xor", "rs"} {
		if get(code, "Total") <= 0 {
			t.Errorf("%s recovery reported non-positive total time", code)
		}
		if get(code, "TestTpt GB/s") <= 0 {
			t.Errorf("%s kernel reported non-positive throughput", code)
		}
	}
}

func TestShapeFig15AcesoLeadsAtAllRatios(t *testing.T) {
	res := runQuick(t, "fig15")
	var norm []float64
	for _, s := range res.Series {
		if s.Name == "normalized" {
			norm = s.Values
		}
	}
	// The write-heavy end must favour Aceso clearly.
	last := norm[len(norm)-1]
	if last < 1.3 {
		t.Errorf("100%%-UPDATE normalized %.2f, want >= 1.3", last)
	}
}

func TestShapeAblDeltaCopiesCost(t *testing.T) {
	res := runQuick(t, "abl2")
	var tput, writes []float64
	for _, s := range res.Series {
		switch s.Name {
		case "UPDATE Mops":
			tput = s.Values
		case "writes/op":
			writes = s.Values
		}
	}
	if writes[0] >= writes[1] {
		t.Errorf("1 delta copy should issue fewer writes: %v", writes)
	}
	if tput[0] <= tput[1] {
		t.Errorf("1 delta copy should be faster: %v", tput)
	}
}
