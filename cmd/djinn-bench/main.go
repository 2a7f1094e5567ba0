// Command djinn-bench regenerates the paper's evaluation: every table
// and figure, and the deterministic extensions beside them, as text
// tables from the calibrated performance models (see DESIGN.md's
// per-experiment index). With no -exp it prints exactly RESULTS.txt.
//
// Usage:
//
//	djinn-bench                 # everything in RESULTS.txt, in its order
//	djinn-bench -exp fig7       # one experiment
//	djinn-bench -list           # list experiment ids
//
// Two ids measure the live engine on the host instead of the models,
// so they are reachable through -exp only: sched (the SLO-aware
// scheduler against static batch caps on an in-process fleet) and
// quant (plan throughput and int8 agreement per precision). quant
// additionally honours -quant-json: a path the machine-readable sweep
// (the same cells the table renders) is written to, e.g.
// `djinn-bench -exp quant -quant-json BENCH_quant.json`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"djinn"
	"djinn/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig4...fig16, table1...table6) or all")
	list := flag.Bool("list", false, "list experiment ids")
	quantJSON := flag.String("quant-json", "", "with -exp quant: also write the sweep as JSON to this path")
	flag.Parse()

	p := djinn.NewPlatform()
	runners := map[string]func() string{
		"table1":   experiments.RenderTable1,
		"table2":   p.RenderTable2,
		"table3":   experiments.RenderTable3,
		"table4":   experiments.RenderTable4,
		"table5":   experiments.RenderTable5,
		"table6":   experiments.RenderTable6,
		"fig4":     p.RenderFig4,
		"fig5":     p.RenderFig5,
		"fig6":     p.RenderFig6,
		"fig7":     p.RenderFig7,
		"fig8":     p.RenderFig8,
		"fig9":     p.RenderFig8, // Figures 8 and 9 share one experiment
		"fig10":    p.RenderFig10,
		"fig11":    func() string { return p.RenderFig11(true) },
		"fig12":    func() string { return p.RenderFig11(false) },
		"fig13":    p.RenderFig13,
		"fig15":    p.RenderFig15,
		"fig16":    p.RenderFig16,
		"ablation": p.RenderAblations,
		"openloop": p.RenderOpenLoop,
		"sched":    experiments.RenderSched,
		"energy":   p.RenderEnergy,
		"validate": p.RenderValidation,
		"cluster":  p.RenderCluster,
		"gpugen":   p.RenderFutureGPUs,
		"quant":    experiments.RenderQuant,
	}
	if *quantJSON != "" {
		runners["quant"] = func() string {
			cells := experiments.QuantSweep(experiments.QuantConfig{})
			buf, err := json.MarshalIndent(cells, "", "  ")
			if err == nil {
				err = os.WriteFile(*quantJSON, append(buf, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", *quantJSON, err)
				os.Exit(1)
			}
			return experiments.RenderQuantCells(cells)
		}
	}
	order := []string{
		"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
		"fig11", "fig12", "fig13", "table4", "table5", "fig15", "table6", "fig16",
		"ablation", "openloop", "energy", "validate", "cluster", "gpugen",
	}
	if *list {
		ids := make([]string, 0, len(runners))
		for id := range runners {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}
	if *exp == "all" {
		for _, id := range order {
			fmt.Println(runners[id]())
			fmt.Println()
		}
		return
	}
	run, ok := runners[strings.ToLower(*exp)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	fmt.Println(run())
}
