package chem

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SDF (MDL structure-data file) reader/writer. The paper downloaded 2D
// SDF structures from ZINC and ChEMBL and SMILES from eMolecules and
// Enamine; both input routes converge in ligand preparation. This
// implements the V2000 connection-table subset those libraries use.

// WriteSDF serializes molecules as an SD file (V2000 counts line, atom
// block with coordinates, bond block, and a terminating $$$$). Charges
// are recorded with M  CHG lines.
func WriteSDF(w io.Writer, mols ...*Mol) error {
	for _, m := range mols {
		name := m.Name
		if name == "" {
			name = "unnamed"
		}
		if _, err := fmt.Fprintf(w, "%s\n  deepfusion\n\n", name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%3d%3d  0  0  0  0  0  0  0  0999 V2000\n",
			len(m.Atoms), len(m.Bonds)); err != nil {
			return err
		}
		for _, a := range m.Atoms {
			if _, err := fmt.Fprintf(w, "%10.4f%10.4f%10.4f %-3s 0  0  0  0  0  0  0  0  0  0  0  0\n",
				a.Pos.X, a.Pos.Y, a.Pos.Z, a.Symbol); err != nil {
				return err
			}
		}
		for _, b := range m.Bonds {
			order := b.Order
			if b.Aromatic {
				order = 4 // MDL aromatic bond type
			}
			if _, err := fmt.Fprintf(w, "%3d%3d%3d  0\n", b.A+1, b.B+1, order); err != nil {
				return err
			}
		}
		var charged []int
		for i, a := range m.Atoms {
			if a.Charge != 0 {
				charged = append(charged, i)
			}
		}
		for lo := 0; lo < len(charged); lo += 8 {
			hi := lo + 8
			if hi > len(charged) {
				hi = len(charged)
			}
			if _, err := fmt.Fprintf(w, "M  CHG%3d", hi-lo); err != nil {
				return err
			}
			for _, i := range charged[lo:hi] {
				if _, err := fmt.Fprintf(w, "%4d%4d", i+1, m.Atoms[i].Charge); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "M  END\n$$$$\n"); err != nil {
			return err
		}
	}
	return nil
}

// ParseSDF reads all molecules from an SD file written in the V2000
// format. Implicit hydrogens are re-derived from valences, and MDL
// aromatic bonds (type 4) are restored as aromatic.
func ParseSDF(r io.Reader) ([]*Mol, error) {
	sc := bufio.NewScanner(r)
	// Lines may run to 1 MiB; the buffer grows to that only on demand.
	sc.Buffer(nil, 1<<20)
	var mols []*Mol
	for {
		m, err := parseOneSDF(sc)
		if serr := sc.Err(); serr != nil {
			// A read error or an over-long line ends the scan; without
			// this check it would read as a clean end of file.
			return nil, fmt.Errorf("chem: reading SDF: %w", serr)
		}
		if err == io.EOF {
			return mols, nil
		}
		if err != nil {
			return nil, err
		}
		mols = append(mols, m)
	}
}

func parseOneSDF(sc *bufio.Scanner) (*Mol, error) {
	// Header: name, program, comment.
	var header [3]string
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			if i == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("chem: truncated SDF header")
		}
		header[i] = sc.Text()
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("chem: missing SDF counts line")
	}
	counts := sc.Text()
	if len(counts) < 6 {
		return nil, fmt.Errorf("chem: malformed counts line %q", counts)
	}
	nAtoms, err := strconv.Atoi(strings.TrimSpace(counts[0:3]))
	if err != nil {
		return nil, fmt.Errorf("chem: bad atom count in %q", counts)
	}
	nBonds, err := strconv.Atoi(strings.TrimSpace(counts[3:6]))
	if err != nil {
		return nil, fmt.Errorf("chem: bad bond count in %q", counts)
	}
	m := &Mol{Name: strings.TrimSpace(header[0])}
	for i := 0; i < nAtoms; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("chem: truncated atom block")
		}
		line := sc.Text()
		if len(line) < 34 {
			return nil, fmt.Errorf("chem: short atom line %q", line)
		}
		x, err1 := strconv.ParseFloat(strings.TrimSpace(line[0:10]), 64)
		y, err2 := strconv.ParseFloat(strings.TrimSpace(line[10:20]), 64)
		z, err3 := strconv.ParseFloat(strings.TrimSpace(line[20:30]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("chem: bad coordinates in %q", line)
		}
		sym := strings.TrimSpace(line[31:34])
		if _, ok := Elements[sym]; !ok {
			return nil, fmt.Errorf("chem: unknown element %q in SDF", sym)
		}
		m.Atoms = append(m.Atoms, Atom{Symbol: sym, NumH: -1, Pos: Vec3{X: x, Y: y, Z: z}})
	}
	for i := 0; i < nBonds; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("chem: truncated bond block")
		}
		line := sc.Text()
		if len(line) < 9 {
			return nil, fmt.Errorf("chem: short bond line %q", line)
		}
		a, err1 := strconv.Atoi(strings.TrimSpace(line[0:3]))
		bIdx, err2 := strconv.Atoi(strings.TrimSpace(line[3:6]))
		order, err3 := strconv.Atoi(strings.TrimSpace(line[6:9]))
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("chem: bad bond line %q", line)
		}
		if a < 1 || a > nAtoms || bIdx < 1 || bIdx > nAtoms {
			return nil, fmt.Errorf("chem: bond index out of range in %q", line)
		}
		bond := Bond{A: a - 1, B: bIdx - 1, Order: order}
		if order == 4 {
			bond.Order = 1
			bond.Aromatic = true
			m.Atoms[bond.A].Aromatic = true
			m.Atoms[bond.B].Aromatic = true
		}
		m.Bonds = append(m.Bonds, bond)
	}
	// Properties block until M  END; then data items until $$$$.
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "M  CHG") {
			if err := parseChargeLine(m, line); err != nil {
				return nil, err
			}
		}
		if strings.HasPrefix(line, "M  END") {
			break
		}
	}
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "$$$$") {
			break
		}
	}
	assignImplicitH(m)
	return m, nil
}

func parseChargeLine(m *Mol, line string) error {
	fields := strings.Fields(line[6:])
	if len(fields) < 1 {
		return fmt.Errorf("chem: malformed charge line %q", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || len(fields) < 1+2*n {
		return fmt.Errorf("chem: malformed charge line %q", line)
	}
	for i := 0; i < n; i++ {
		idx, err1 := strconv.Atoi(fields[1+2*i])
		chg, err2 := strconv.Atoi(fields[2+2*i])
		if err1 != nil || err2 != nil || idx < 1 || idx > len(m.Atoms) {
			return fmt.Errorf("chem: bad charge entry in %q", line)
		}
		m.Atoms[idx-1].Charge = chg
		m.Atoms[idx-1].NumH = -1 // re-derive with the charge applied
	}
	return nil
}

// WritePDBQT renders the molecule as an AutoDock PDBQT-style record
// (the docking input format the paper produced with Open Babel):
// HETATM lines with coordinates, crude Gasteiger-like partial charges
// and AutoDock atom types, plus rotatable-bond (BRANCH) count in a
// REMARK.
func WritePDBQT(w io.Writer, m *Mol) error {
	name := m.Name
	if name == "" {
		name = "LIG"
	}
	if _, err := fmt.Fprintf(w, "REMARK  Name = %s\nREMARK  %d active torsions\nROOT\n",
		name, m.RotatableBonds()); err != nil {
		return err
	}
	for i, a := range m.Atoms {
		e := Elements[a.Symbol]
		q := float64(a.Charge)*0.8 + (e.EN-2.5)*0.15
		adType := a.Symbol
		if a.Aromatic && a.Symbol == "C" {
			adType = "A" // AutoDock aromatic carbon
		}
		if _, err := fmt.Fprintf(w, "HETATM%5d  %-3s LIG A   1    %8.3f%8.3f%8.3f  1.00  0.00    %6.3f %-2s\n",
			i+1, a.Symbol, a.Pos.X, a.Pos.Y, a.Pos.Z, q, adType); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "ENDROOT\nTORSDOF 0\n")
	return err
}
