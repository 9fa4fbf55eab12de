// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a function from a Config to a
// renderable result; the cmd/experiments binary and the repository's
// benchmark harness both drive these functions, so the printed rows and
// the benchmarked code paths are identical.
//
// Absolute numbers differ from the paper — the substrate is a simulator,
// not a 2021 EC2 testbed — but each result type's comment states the
// qualitative shape the paper reports, and the tests in this package
// assert those shapes hold.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config tunes experiment scale.
type Config struct {
	// Seed is the base random seed; multi-seed experiments use
	// Seed, Seed+1, ...
	Seed uint64
	// Seeds is the number of repetitions for mean ± std rows (default 3,
	// matching the paper).
	Seeds int
	// Fast shrinks sweeps for tests and smoke runs: fewer sweep points
	// and smaller jobs, same code paths.
	Fast bool
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	return c
}

// Runner is one registered experiment.
type Runner struct {
	// Name is the registry key, e.g. "fig9" or "table2".
	Name string
	// Description summarizes what the paper's artifact shows.
	Description string
	// Run executes the experiment and returns a renderable result.
	Run func(Config) (fmt.Stringer, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Runner {
	return []Runner{
		{"fig4", "Sub-linear scaling of DL models with increasing GPUs", func(c Config) (fmt.Stringer, error) { return Fig4(c) }},
		{"fig9", "Impact of stragglers on cost under per-instance vs per-function billing", func(c Config) (fmt.Stringer, error) { return Fig9(c) }},
		{"fig10", "Impact of data I/O pricing for small and large datasets", func(c Config) (fmt.Stringer, error) { return Fig10(c) }},
		{"fig11", "Cost vs number of trials (job size)", func(c Config) (fmt.Stringer, error) { return Fig11(c) }},
		{"fig12", "Cost vs deadline at 1s/10s/100s instance initialization latency", func(c Config) (fmt.Stringer, error) { return Fig12(c) }},
		{"table1", "Placement controller ablation: sample throughput", func(c Config) (fmt.Stringer, error) { return Table1(c) }},
		{"table2", "End-to-end cost across time constraints (static/naive/RubberBand)", func(c Config) (fmt.Stringer, error) { return Table2(c) }},
		{"table3", "Example elastic cluster schedule for the 20-minute plan", func(c Config) (fmt.Stringer, error) { return Table3(c) }},
		{"table4", "Cost across DL models (fixed vs RubberBand)", func(c Config) (fmt.Stringer, error) { return Table4(c) }},
		{"ablation", "Planner design-choice ablations (warm starts, step types, selection)", func(c Config) (fmt.Stringer, error) { return Ablation(c) }},
		{"asha", "Extension: ASHA (fixed-cluster prior work) vs RubberBand", func(c Config) (fmt.Stringer, error) { return ASHA(c) }},
		{"spot", "Extension: spot-market preemption sweep with checkpoint recovery", func(c Config) (fmt.Stringer, error) { return Spot(c) }},
		{"fidelity", "Sim-vs-real error distribution across randomized workloads", func(c Config) (fmt.Stringer, error) { return Fidelity(c) }},
		{"instances", "Extension: worker instance-type selection across deadlines", func(c Config) (fmt.Stringer, error) { return Instances(c) }},
	}
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Runner, error) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, nil
		}
	}
	var names []string
	for _, r := range Registry() {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}

// table renders rows of columns with aligned padding — the shared
// formatter for every experiment's String method.
type table struct {
	title  string
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteString("\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	line(t.header)
	total := len(t.header) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first,
// commas in cells replaced by semicolons), for external plotting.
func (t *table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(strings.ReplaceAll(c, ",", ";"))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSVer is implemented by experiment results that can render as CSV.
type CSVer interface{ CSV() string }

// meanStd formats "12.34 ± 0.56".
func meanStd(mean, std float64) string {
	return fmt.Sprintf("%.2f ± %.2f", mean, std)
}

// mmss formats seconds as mm:ss.
func mmss(seconds float64) string {
	m := int(seconds) / 60
	s := int(seconds) % 60
	return fmt.Sprintf("%02d:%02d", m, s)
}
