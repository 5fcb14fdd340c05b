// covidscreen runs a miniature version of the paper's SARS-CoV-2
// campaign: draw compounds from all four libraries, screen them
// against the four binding sites with the full funnel (prepare ->
// dock -> distributed Fusion scoring -> cost-function selection), and
// report the top candidates per target.
//
//	go run ./examples/covidscreen -n 16
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"deepfusion"
	"deepfusion/internal/pdbbind"
)

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 16, "compounds to screen per target")
	top := flag.Int("top", 3, "candidates to report per target")
	flag.Parse()

	// Train repro-scale models once.
	opts := deepfusion.DefaultTrainOptions()
	opts.Dataset = pdbbind.Options{NGeneral: 120, NRefined: 60, NCore: 16, ValFraction: 0.1, NumPockets: 6, Seed: 9}
	opts.CNN.Epochs, opts.SG.Epochs, opts.Mid.Epochs, opts.Coherent.Epochs = 2, 4, 2, 2
	fmt.Println("training models...")
	models, err := deepfusion.Train(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Build the screening deck from the four libraries.
	var deck []*deepfusion.Mol
	libs := deepfusion.Libraries()
	for i := 0; len(deck) < *n; i++ {
		lib := libs[i%len(libs)]
		m, err := lib.Mol((i / len(libs)) % lib.Size)
		if err != nil {
			continue
		}
		deck = append(deck, m)
	}
	fmt.Printf("screening %d compounds against %d targets\n\n", len(deck), len(deepfusion.Targets()))

	pipe := deepfusion.NewPipeline(models).
		WithDocking(3, 1).
		WithSelection(deepfusion.CostWeights(), *top)
	for _, tgt := range deepfusion.Targets() {
		res, err := pipe.Run(context.Background(), tgt, deck)
		if err != nil {
			log.Fatalf("%s: %v", tgt.Name, err)
		}
		if res.Rejected > 0 {
			log.Printf("%s: docking rejected %d of %d compounds: %v", tgt.Name, res.Rejected, res.Compounds, res.Problems)
		}
		fmt.Printf("%s (site radius %.1f A): top %d of %d\n", tgt.Name, tgt.Radius, len(res.Selected), len(deck))
		for _, s := range res.Selected {
			fmt.Printf("  %-26s predicted pK %.2f (vina %.2f kcal/mol, %d poses)\n",
				s.CompoundID, s.Fusion, s.Vina, s.NumPoses)
		}
		fmt.Println()
	}
}
