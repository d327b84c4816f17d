package clusterconf

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdma"
	"repro/internal/rdma/tcpnet"
)

// nonDefault returns a Config whose every field, nested Layout fields
// included, differs from DefaultConfig's.
func nonDefault(t *testing.T) core.Config {
	t.Helper()
	cfg := core.DefaultConfig()
	var set func(prefix string, v reflect.Value)
	set = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			if !f.CanSet() {
				t.Fatalf("%s is unexported: it would not travel to a client", name)
			}
			switch f.Kind() {
			case reflect.Struct:
				set(name+".", f)
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 7)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 4096)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.125)
			case reflect.String:
				f.SetString(f.String() + "-x")
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("%s: no non-default value for kind %s", name, f.Kind())
			}
		}
	}
	set("", reflect.ValueOf(&cfg).Elem())
	return cfg
}

// TestEncodingCarriesEveryField round-trips a Config with every field
// set away from its default, so a field added to core.Config later
// travels to a joining client too.
func TestEncodingCarriesEveryField(t *testing.T) {
	want := nonDefault(t)
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if f, x, y := firstDiff(got, want); f != "" {
		t.Fatalf("%s did not round-trip: got %v, want %v (wire %s)", f, x, y, b)
	}
	if _, err := decode([]byte(`{"Layout":{"NumMNs":5},"Spare":1}`)); err == nil {
		t.Fatal("decode accepted a field core.Config does not have")
	}
}

func TestFirstDiffNamesNestedField(t *testing.T) {
	a, b := core.DefaultConfig(), core.DefaultConfig()
	b.Layout.StripeRows, b.Code = 48, "rs"
	if f, x, y := firstDiff(a, b); f != "Layout.StripeRows" || x != 24 || y != 48 {
		t.Fatalf("firstDiff = %s %v %v, want Layout.StripeRows 24 48", f, x, y)
	}
	if f, _, _ := firstDiff(a, a); f != "" {
		t.Fatalf("firstDiff of equal configs = %s", f)
	}
}

// serve publishes cfg on an in-process group of cfg.Layout.NumMNs
// nodes and returns their addresses.
func serve(t *testing.T, cfg core.Config) []string {
	t.Helper()
	pl := tcpnet.NewGroup()
	t.Cleanup(pl.Close)
	if err := Publish(pl, cfg); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, cfg.Layout.NumMNs)
	for i := range addrs {
		addrs[i] = pl.NodeAddr(pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 4096}))
	}
	return addrs
}

func TestJoin(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.FTMode, cfg.Layout.NumMNs, cfg.Layout.StripeRows = core.FTModeSwarm, 3, 48
	cfg.CacheEntries, cfg.TraceSample = -1, 1
	addrs := serve(t, cfg)

	got, err := Join(addrs)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg
	want.CacheEntries, want.TraceSample = core.DefaultConfig().CacheEntries, core.DefaultConfig().TraceSample
	if f, x, y := firstDiff(got, want); f != "" {
		t.Fatalf("joined config differs in %s: %v, want %v", f, x, y)
	}
	// A peer that does not answer is skipped.
	if _, err := Join(append([]string{"127.0.0.1:1"}, addrs[1:]...)); err != nil {
		t.Fatalf("join past a dead first peer: %v", err)
	}
	_, err = Join(addrs[:2])
	if err == nil || !strings.Contains(err.Error(), "2 addresses") || !strings.Contains(err.Error(), "3 memory nodes") {
		t.Fatalf("join with a short peer list: %v", err)
	}
}

func TestCheckPeers(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Layout.NumMNs = 2
	addrs := serve(t, cfg)

	same := cfg
	same.TraceSample = 1 // a per-process field
	if err := CheckPeers(same, addrs, 1); err != nil {
		t.Fatalf("agreeing daemon: %v", err)
	}
	other := cfg
	other.Layout.StripeRows = 48
	if err := CheckPeers(other, addrs, 1); err == nil || !strings.Contains(err.Error(), "Layout.StripeRows") {
		t.Fatalf("daemon with other -stripes: %v", err)
	}
	if err := CheckPeers(other, []string{"127.0.0.1:1", "127.0.0.1:1"}, 0); err != nil {
		t.Fatalf("no peer up yet: %v", err)
	}
}
