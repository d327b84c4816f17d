// Command acesobench regenerates the paper's evaluation artifacts
// (Figures 1, 8-20, Tables 2-3 and two ablations) on the simulated
// fabric and prints them as paper-style tables. It writes no file
// unless -csv names a directory.
//
// Usage:
//
//	acesobench -list
//	acesobench -exp fig8
//	acesobench -all
//	acesobench -all -quick          # fast smoke pass
//	acesobench -exp fig10 -clients 92 -ops 300
//	acesobench -all -csv results    # also results/<id>.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run (fig1a, fig1b, fig8..fig20, tab2, tab3, abl2, abl3)")
		all     = flag.Bool("all", false, "run every experiment in paper order")
		list    = flag.Bool("list", false, "list experiment ids and titles")
		quick   = flag.Bool("quick", false, "shrink scale for a fast smoke pass")
		clients = flag.Int("clients", 0, "total client count (default 92)")
		cns     = flag.Int("cns", 0, "compute node count (default 23)")
		ops     = flag.Int("ops", 0, "measured operations per client (default 200)")
		kvSize  = flag.Int("kv", 0, "value size in bytes (default 1024)")
		csvDir  = flag.String("csv", "", "also write each result as <dir>/<id>.csv")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			e, _ := bench.Lookup(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}

	opts := bench.Options{
		Clients:      *clients,
		CNs:          *cns,
		OpsPerClient: *ops,
		KVSize:       *kvSize,
		Quick:        *quick,
	}

	ids := []string{}
	switch {
	case *all:
		ids = bench.IDs()
	case *exp != "":
		ids = append(ids, *exp)
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, id := range ids {
		start := time.Now()
		res, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(res.Text())
		fmt.Printf("  (generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := res.WriteCSV(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
		}
	}
}
