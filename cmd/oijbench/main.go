// Command oijbench is the benchmark front end of the repository.
//
// Subcommands drive the perf subsystem (internal/perf):
//
//	oijbench sweep -spec full -tag paper           # record BENCH_paper.json
//	oijbench report BENCH_paper.json               # one Markdown table per sweep
//	oijbench baseline -spec seed                   # record BENCH_seed.json
//	oijbench gate -baseline BENCH_seed.json        # re-measure + regression-gate
//	oijbench specs                                 # list builtin sweep specs
//
// The full spec regenerates the figures of "Scalable Online Interval Join
// on Modern Multicore Processors in OpenMLDB" (ICDE 2023) against this
// repository's engines, one sweep per figure or group of figures.
//
// See DESIGN.md for the experiment index, EXPERIMENTS.md for the sweep
// spec format and gate semantics, and PAPER_RESULTS.md for recorded
// paper-vs-measured outcomes.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep", "baseline":
			os.Exit(runSweepOrBaseline(os.Args[1], os.Args[2:], os.Stdout, os.Stderr))
		case "gate":
			os.Exit(runGate(os.Args[2:], os.Stdout, os.Stderr))
		case "specs":
			os.Exit(runSpecs(os.Stdout, os.Stderr))
		case "report":
			os.Exit(runReport(os.Args[2:], os.Stdout, os.Stderr))
		case "sim":
			os.Exit(runSim(os.Args[2:], os.Stdout, os.Stderr))
		case "simdiff":
			os.Exit(runSimDiff(os.Args[2:], os.Stdout, os.Stderr))
		case "profdiff":
			os.Exit(runProfDiff(os.Args[2:], os.Stdout, os.Stderr))
		case "help", "-h", "-help", "--help":
			fmt.Println(usageText)
			return
		}
	}
	fmt.Fprintln(os.Stderr, usageText)
	os.Exit(2)
}
