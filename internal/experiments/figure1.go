package experiments

import (
	"fmt"
	"strings"
)

// Figure1 renders the paper's architecture figure as text: the 3D-CNN
// head, the SG-CNN head and the fusion block of the trained Coherent
// Fusion model, layer by layer with parameter counts. The dashed
// optional components of the paper's figure appear when the converged
// configuration enables them (residual connections, model-specific
// dense layers, batch normalization).
func Figure1(s Scale) string {
	f := Coherent(s)
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 1: Deep Fusion architecture (trained configuration)")
	fmt.Fprintln(&b, strings.Repeat("-", 72))
	b.WriteString(f.Summary())
	return b.String()
}
