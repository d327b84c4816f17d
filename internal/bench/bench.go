// Package bench regenerates every table and figure of the paper's
// evaluation (§4), and two ablations of its design choices, on the
// simulated fabric. Each experiment is registered under the paper's
// artifact id ("fig8", "tab2", "abl2", ...) and returns a Result whose
// text is a paper-style table; cmd/acesobench prints them and
// EXPERIMENTS.md records paper-vs-measured values. Performance
// tracking across commits is not done here: that is the gated harness
// under benchmark/.
package bench

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/stats"
)

// Options scales an experiment. Zero values mean "experiment default";
// the defaults are a scaled-down version of the paper's testbed (§4.1:
// 184 clients on 23 CNs, 1024-byte KVs, 2 MB blocks, 500 ms checkpoint
// interval).
type Options struct {
	// Clients is the total client count.
	Clients int
	// CNs is the number of compute nodes clients spread over.
	CNs int
	// OpsPerClient is the measured operation count per client.
	OpsPerClient int
	// KVSize is the value size in bytes.
	KVSize int
	// Quick shrinks everything for smoke tests and testing.B wrappers.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Clients == 0 {
		o.Clients = 92
	}
	if o.CNs == 0 {
		o.CNs = 23
	}
	if o.OpsPerClient == 0 {
		o.OpsPerClient = 200
	}
	if o.KVSize == 0 {
		o.KVSize = 1024
	}
	if o.Quick {
		if o.Clients > 16 {
			o.Clients = 16
		}
		o.CNs = 4
		if o.OpsPerClient > 60 {
			o.OpsPerClient = 60
		}
	}
	return o
}

// Result is one regenerated artifact.
type Result struct {
	ID     string
	Title  string
	Series []*stats.Series
	Notes  []string
}

// Text renders the result as an aligned table plus notes.
func (r *Result) Text() string {
	out := stats.Table(fmt.Sprintf("[%s] %s", r.ID, r.Title), r.Series...)
	for _, n := range r.Notes {
		out += "  note: " + n + "\n"
	}
	return out
}

// WriteCSV emits the result as CSV (one header row of labels, one row
// per series) for external plotting.
func (r *Result) WriteCSV(w io.Writer) error {
	if len(r.Series) == 0 {
		return nil
	}
	row := []string{"series"}
	row = append(row, r.Series[0].Labels...)
	if err := writeCSVRow(w, row); err != nil {
		return err
	}
	for _, s := range r.Series {
		row = row[:0]
		row = append(row, s.Name)
		for _, v := range s.Values {
			row = append(row, strconv.FormatFloat(v, 'g', 8, 64))
		}
		if err := writeCSVRow(w, row); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVRow(w io.Writer, fields []string) error {
	for i, f := range fields {
		sep := ","
		if i == 0 {
			sep = ""
		}
		needQuote := false
		for _, c := range f {
			if c == ',' || c == '"' || c == '\n' {
				needQuote = true
			}
		}
		if needQuote {
			f = "\"" + f + "\"" // labels never contain quotes themselves
		}
		if _, err := fmt.Fprintf(w, "%s%s", sep, f); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Experiment is a registered artifact generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var registry = map[string]*Experiment{}

// canonicalOrder lists the artifacts in the paper's order, the
// ablations last; IDs returns nothing that is not named here.
var canonicalOrder = []string{
	"fig1a", "fig1b",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"tab2", "tab3",
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
	"abl2", "abl3",
}

func register(id, title string, run func(Options) (*Result, error)) {
	registry[id] = &Experiment{ID: id, Title: title, Run: run}
}

// IDs returns all experiment ids in the paper's order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, id := range canonicalOrder {
		if _, ok := registry[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes one experiment by id.
func Run(id string, o Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(o.withDefaults())
}

// ms renders a duration as fractional milliseconds for table cells.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us renders a duration as fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
