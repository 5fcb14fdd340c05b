// Command benchreport regenerates the paper's tables and figures as
// text reports. With no flags it runs every experiment; -exp selects
// one; -json emits a machine-readable array of {experiment, text}
// records (`make bench-report`). Performance is measured by the
// repository benchmark (benchmark/), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"deepfusion/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	exp := flag.String("exp", "all", "experiment: fig1|table1|table2|table3|table4|table5|table6|table7|table8|fig2|fig4|fig5|fig6|fig7|hitrate|all")
	full := flag.Bool("full", false, "use the full benchmark budget (minutes) instead of the smoke budget")
	asJSON := flag.Bool("json", false, "emit a JSON array of {experiment, text} records instead of plain text")
	flag.Parse()

	s := experiments.Smoke
	if *full {
		s = experiments.Full
	}
	runners := []struct {
		name string
		run  func() string
	}{
		{"fig1", func() string { return experiments.Figure1(s) }},
		{"table1", func() string { return experiments.Table1() }},
		{"table2", func() string { return experiments.Table2SGCNN(s).Text }},
		{"table3", func() string { return experiments.Table3CNN3D(s).Text }},
		{"table4", func() string { return experiments.Table4MidFusion(s).Text }},
		{"table5", func() string { return experiments.Table5Coherent(s).Text }},
		{"table6", func() string { return experiments.Table6(s).Text }},
		{"fig2", func() string { return experiments.Figure2(s).Text }},
		{"table7", func() string { return experiments.Table7().Text }},
		{"fig4", func() string { return experiments.Figure4().Text }},
		{"fig5", func() string { return experiments.Figure5(s).Text }},
		{"table8", func() string { return experiments.Table8(s).Text }},
		{"fig6", func() string { return experiments.Figure6(s).Text }},
		{"fig7", func() string { return experiments.Figure7(s).Text }},
		{"hitrate", func() string { return experiments.HitRate(s).Text }},
	}
	want := strings.ToLower(*exp)
	found := false
	type record struct {
		Experiment string `json:"experiment"`
		Text       string `json:"text"`
	}
	var records []record
	for _, r := range runners {
		if want != "all" && r.name != want {
			continue
		}
		found = true
		if *asJSON {
			records = append(records, record{Experiment: r.name, Text: r.run()})
		} else {
			fmt.Println(r.run())
		}
	}
	if !found {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			log.Fatal(err)
		}
	}
}
