package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// record is the one result schema: what ran, where, and every
// workload's named numbers.
type record struct {
	Rev  string `json:"rev"`
	Host struct {
		Cores      int    `json:"cores"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
	} `json:"host"`
	Seed      int64             `json:"seed"`
	Scale     float64           `json:"scale"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadResult `json:"workloads"`
}

func newRecord(opt options) *record {
	r := &record{Rev: gitRev(), Seed: opt.seed, Scale: opt.scale, Seconds: opt.seconds, Traced: opt.traced}
	r.Host.Cores, r.Host.GOMAXPROCS, r.Host.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	return r
}

// gitRev is the checkout's commit, or "unknown" outside a repository
// (the driver's checkout is not one).
func gitRev() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look for .git here only, not in the directories above.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// side is one side of a comparison: for every workload × end-to-end
// metric the values of all its records, plus the failure counts.
type side struct {
	values map[string]map[string][]float64
	failed map[string]int64
	tried  map[string]int64
}

func loadSide(paths []string) (*side, error) {
	s := &side{values: map[string]map[string][]float64{}, failed: map[string]int64{}, tried: map[string]int64{}}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range r.Workloads {
			if s.values[w.Name] == nil {
				s.values[w.Name] = map[string][]float64{}
			}
			for name, v := range w.E2E {
				s.values[w.Name][name] = append(s.values[w.Name][name], v)
			}
			s.failed[w.Name] += w.Failed
			s.tried[w.Name] += w.Attempted
		}
	}
	return s, nil
}

// spread is the interquartile range over the median, the way Python's
// statistics.quantiles(values, n=4) cuts (exclusive method). It is 0
// for fewer than two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		lo := int(pos)
		switch {
		case pos <= 0:
			return s[0]
		case lo+1 >= len(s):
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (cut(0.75) - cut(0.25)) / median(s)
}

// compareRecords prints one row per workload × end-to-end metric and
// reports whether any is worse or any workload fails more.
func compareRecords(w io.Writer, oldPaths, newPaths []string) (worse bool, err error) {
	oldS, err := loadSide(oldPaths)
	if err != nil {
		return false, err
	}
	newS, err := loadSide(newPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-20s %-20s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	for _, s := range specs {
		ov, nv := oldS.values[s.Name], newS.values[s.Name]
		if ov == nil || nv == nil {
			continue
		}
		for _, m := range endToEnd {
			if len(ov[m.Name]) == 0 || len(nv[m.Name]) == 0 {
				continue
			}
			o, n := median(ov[m.Name]), median(nv[m.Name])
			// change > 0 is always "got worse".
			change := (n - o) / o
			if m.Better == "higher" {
				change = -change
			}
			sp := spread(ov[m.Name])
			if s2 := spread(nv[m.Name]); s2 > sp {
				sp = s2
			}
			verdict := "same"
			switch {
			case sp > m.Bound && m.Name != "setup_s":
				// setup_s is already a median of set-ups within each
				// run; its spread between runs is not held to the bound.
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-20s %-20s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				s.Name, m.Name, o, n, 100*(n-o)/o, 100*m.Bound, 100*sp, verdict)
		}
		of := float64(oldS.failed[s.Name]) / float64(oldS.tried[s.Name])
		nf := float64(newS.failed[s.Name]) / float64(newS.tried[s.Name])
		verdict := "same"
		if nf > of {
			verdict = "worse"
			worse = true
		}
		fmt.Fprintf(w, "%-20s %-20s %12.6f %12.6f %8s %7s %7s  %s\n", s.Name, "fail_frac", of, nf, "", "0%", "", verdict)
	}
	return worse, nil
}
