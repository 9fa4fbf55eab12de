// Command experiments regenerates the paper's evaluation artifacts: every
// table and figure of §6, plus the planner design-choice ablations.
//
// Usage:
//
//	experiments -run fig9          # one experiment
//	experiments -run all           # everything, in paper order
//	experiments -run table2 -seeds 3
//	experiments -list              # show available experiments
//
// Absolute numbers depend on the simulated substrate; the qualitative
// shapes (who wins, how gaps move with the swept parameter) are the
// reproduction target. See EXPERIMENTS.md for paper-vs-measured notes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment to run (see -list), or \"all\"")
		list   = flag.Bool("list", false, "list available experiments and exit")
		seed   = flag.Uint64("seed", 1, "base random seed")
		seeds  = flag.Int("seeds", 3, "repetitions for mean±std cells")
		fast   = flag.Bool("fast", false, "reduced sweeps (smoke test)")
		format = flag.String("format", "text", "output format: text or csv")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text or csv)\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", r.Name, r.Description)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Seeds: *seeds, Fast: *fast}
	var runners []experiments.Runner
	if *run == "all" {
		runners = experiments.Registry()
	} else {
		r, err := experiments.Lookup(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}

	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, err)
			os.Exit(1)
		}
		if *format == "csv" {
			c, ok := res.(experiments.CSVer)
			if !ok {
				fmt.Fprintf(os.Stderr, "%s: no CSV rendering\n", r.Name)
				os.Exit(1)
			}
			fmt.Printf("# %s\n%s\n", r.Name, c.CSV())
			continue
		}
		fmt.Printf("== %s (%s) [%.1fs]\n\n%s\n", r.Name, r.Description,
			time.Since(start).Seconds(), res)
	}
}
