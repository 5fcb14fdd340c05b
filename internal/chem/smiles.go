package chem

import (
	"fmt"
	"strings"
)

// ParseSMILES parses a SMILES string (Weininger 1988) covering the
// subset used by the compound libraries in this repository: the organic
// subset (B, C, N, O, P, S, F, Cl, Br, I), aromatic lower-case atoms,
// bracket atoms with charge and explicit hydrogen counts, branches,
// ring-bond closures (including %nn), explicit bond orders and
// dot-separated fragments. Stereo markers (/, \, @) are accepted and
// ignored, as the pipeline re-derives geometry in 3D embedding.
func ParseSMILES(s string) (*Mol, error) {
	p := &smilesParser{src: s, mol: &Mol{SMILES: s}, ring: map[int]ringOpen{}}
	if err := p.parse(); err != nil {
		return nil, fmt.Errorf("chem: parsing %q: %w", s, err)
	}
	if len(p.ring) > 0 {
		return nil, fmt.Errorf("chem: parsing %q: unclosed ring bond", s)
	}
	if len(p.mol.Atoms) == 0 {
		return nil, fmt.Errorf("chem: parsing %q: empty molecule", s)
	}
	assignImplicitH(p.mol)
	return p.mol, nil
}

type ringOpen struct {
	atom  int
	order int
}

type smilesParser struct {
	src  string
	pos  int
	mol  *Mol
	ring map[int]ringOpen
	// firstBond[i] is how many bonds existed when atom i was added:
	// every bond of atom i sits at or after it.
	firstBond []int
}

// bonded reports whether atoms a and b already share a bond. Such a
// bond sits at or after the later atom's firstBond.
func (p *smilesParser) bonded(a, b int) bool {
	for _, bd := range p.mol.Bonds[p.firstBond[max(a, b)]:] {
		if bd.A == a && bd.B == b || bd.A == b && bd.B == a {
			return true
		}
	}
	return false
}

func (p *smilesParser) parse() error {
	var stack []int // branch return points
	prev := -1      // previous atom index
	pendingOrder := 0
	pendingAromatic := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '(':
			if prev < 0 {
				return fmt.Errorf("branch open before any atom at %d", p.pos)
			}
			stack = append(stack, prev)
			p.pos++
		case c == ')':
			if len(stack) == 0 {
				return fmt.Errorf("unbalanced ')' at %d", p.pos)
			}
			prev = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.pos++
		case c == '-':
			pendingOrder = 1
			p.pos++
		case c == '=':
			pendingOrder = 2
			p.pos++
		case c == '#':
			pendingOrder = 3
			p.pos++
		case c == ':':
			pendingOrder = 1
			pendingAromatic = true
			p.pos++
		case c == '/' || c == '\\':
			p.pos++ // stereo bond direction: ignored
		case c == '.':
			prev = -1
			pendingOrder = 0
			p.pos++
		case c >= '0' && c <= '9' || c == '%':
			n, err := p.ringNumber()
			if err != nil {
				return err
			}
			if prev < 0 {
				return fmt.Errorf("ring closure before any atom at %d", p.pos)
			}
			if open, ok := p.ring[n]; ok {
				if open.atom == prev {
					return fmt.Errorf("ring bond %d closes on the atom that opened it at %d", n, p.pos)
				}
				// A second bond between two bonded atoms ("C1C1",
				// "C12CC12") is an error, as in the reference toolkits:
				// a bond's order is written once, not summed.
				if p.bonded(open.atom, prev) {
					return fmt.Errorf("ring bond %d duplicates an existing bond at %d", n, p.pos)
				}
				order := pendingOrder
				if order == 0 {
					order = open.order
				}
				aromatic := p.mol.Atoms[open.atom].Aromatic && p.mol.Atoms[prev].Aromatic
				if order == 0 {
					order = 1
				}
				p.mol.Bonds = append(p.mol.Bonds, Bond{A: open.atom, B: prev, Order: order, Aromatic: aromatic})
				delete(p.ring, n)
			} else {
				p.ring[n] = ringOpen{atom: prev, order: pendingOrder}
			}
			pendingOrder = 0
			pendingAromatic = false
		default:
			ai, err := p.atom()
			if err != nil {
				return err
			}
			if prev >= 0 {
				order := pendingOrder
				aromatic := pendingAromatic ||
					(p.mol.Atoms[prev].Aromatic && p.mol.Atoms[ai].Aromatic && pendingOrder == 0)
				if order == 0 {
					order = 1
				}
				p.mol.Bonds = append(p.mol.Bonds, Bond{A: prev, B: ai, Order: order, Aromatic: aromatic})
			}
			prev = ai
			pendingOrder = 0
			pendingAromatic = false
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("unbalanced '(' (%d open)", len(stack))
	}
	return nil
}

func (p *smilesParser) ringNumber() (int, error) {
	c := p.src[p.pos]
	if c == '%' {
		if p.pos+2 >= len(p.src) {
			return 0, fmt.Errorf("truncated %%nn ring closure at %d", p.pos)
		}
		d1, d2 := p.src[p.pos+1], p.src[p.pos+2]
		if d1 < '0' || d1 > '9' || d2 < '0' || d2 > '9' {
			return 0, fmt.Errorf("bad %%nn ring closure at %d", p.pos)
		}
		p.pos += 3
		return int(d1-'0')*10 + int(d2-'0'), nil
	}
	p.pos++
	return int(c - '0'), nil
}

// atom parses one atom token and appends it to the molecule, returning
// its index.
func (p *smilesParser) atom() (int, error) {
	c := p.src[p.pos]
	if c == '[' {
		return p.bracketAtom()
	}
	// Organic subset. Two-letter halogens first.
	if strings.HasPrefix(p.src[p.pos:], "Cl") {
		p.pos += 2
		return p.addAtom("Cl", 0, false, -1), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "Br") {
		p.pos += 2
		return p.addAtom("Br", 0, false, -1), nil
	}
	switch c {
	case 'B', 'C', 'N', 'O', 'P', 'S', 'F', 'I':
		p.pos++
		return p.addAtom(string(c), 0, false, -1), nil
	case 'b', 'c', 'n', 'o', 'p', 's':
		p.pos++
		return p.addAtom(strings.ToUpper(string(c)), 0, true, -1), nil
	}
	return 0, fmt.Errorf("unexpected character %q at %d", c, p.pos)
}

func (p *smilesParser) bracketAtom() (int, error) {
	end := strings.IndexByte(p.src[p.pos:], ']')
	if end < 0 {
		return 0, fmt.Errorf("unterminated bracket atom at %d", p.pos)
	}
	body := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	i := 0
	// optional isotope
	for i < len(body) && body[i] >= '0' && body[i] <= '9' {
		i++
	}
	if i == len(body) {
		return 0, fmt.Errorf("bracket atom %q has no element", body)
	}
	aromatic := false
	var sym string
	c := body[i]
	switch {
	case c >= 'a' && c <= 'z':
		aromatic = true
		sym = strings.ToUpper(string(c))
		i++
	case c >= 'A' && c <= 'Z':
		sym = string(c)
		i++
		if i < len(body) && body[i] >= 'a' && body[i] <= 'z' {
			two := sym + string(body[i])
			if _, ok := Elements[two]; ok {
				sym = two
				i++
			}
		}
	default:
		return 0, fmt.Errorf("bad bracket atom %q", body)
	}
	if _, ok := Elements[sym]; !ok {
		return 0, fmt.Errorf("unknown element %q", sym)
	}
	// chirality markers
	for i < len(body) && body[i] == '@' {
		i++
	}
	if i < len(body) && (body[i] == 'T' || body[i] == 'A') { // @TH1 etc: skip letters+digits
		for i < len(body) && body[i] != 'H' && body[i] != '+' && body[i] != '-' {
			i++
		}
	}
	hCount := 0
	if i < len(body) && body[i] == 'H' {
		i++
		hCount = 1
		if i < len(body) && body[i] >= '0' && body[i] <= '9' {
			hCount = int(body[i] - '0')
			i++
		}
	}
	charge := 0
	for i < len(body) {
		switch body[i] {
		case '+':
			charge++
			i++
			if i < len(body) && body[i] >= '1' && body[i] <= '9' {
				charge = int(body[i] - '0')
				i++
			}
		case '-':
			charge--
			i++
			if i < len(body) && body[i] >= '1' && body[i] <= '9' {
				charge = -int(body[i] - '0')
				i++
			}
		default:
			return 0, fmt.Errorf("unexpected %q in bracket atom %q", body[i], body)
		}
	}
	return p.addAtom(sym, charge, aromatic, hCount), nil
}

// addAtom appends an atom; hCount -1 means "derive implicit hydrogens
// from valence after parsing".
func (p *smilesParser) addAtom(sym string, charge int, aromatic bool, hCount int) int {
	a := Atom{Symbol: sym, Charge: charge, Aromatic: aromatic, NumH: hCount}
	p.mol.Atoms = append(p.mol.Atoms, a)
	p.firstBond = append(p.firstBond, len(p.mol.Bonds))
	return len(p.mol.Atoms) - 1
}

// assignImplicitH fills NumH for organic-subset atoms (NumH == -1)
// using default valences; aromatic bonds count 1.5 toward the bond
// order sum, as in the Daylight model.
func assignImplicitH(m *Mol) {
	orderSum := make([]float64, len(m.Atoms))
	for _, b := range m.Bonds {
		o := float64(b.Order)
		if b.Aromatic {
			o = 1.5
		}
		orderSum[b.A] += o
		orderSum[b.B] += o
	}
	for i := range m.Atoms {
		a := &m.Atoms[i]
		if a.NumH >= 0 {
			continue
		}
		e, ok := Elements[a.Symbol]
		if !ok {
			a.NumH = 0
			continue
		}
		val := e.Valence + a.Charge*valenceChargeSign(a.Symbol)
		h := val - int(orderSum[i]+0.5)
		if h < 0 {
			h = 0
		}
		a.NumH = h
	}
}

// valenceChargeSign returns +1 for elements whose protonation raises
// bonding capacity (N), -1 for those whose deprotonation lowers it (O,
// S), matching common organic charge states.
func valenceChargeSign(sym string) int {
	switch sym {
	case "N", "P":
		return 1
	case "O", "S":
		return 1
	default:
		return 0
	}
}

// WriteSMILES produces a SMILES string for m via depth-first traversal.
// The output is not canonical, but ParseSMILES(WriteSMILES(m)) yields a
// molecule with identical composition, bonds, charges and aromaticity.
func WriteSMILES(m *Mol) string {
	if len(m.Atoms) == 0 {
		return ""
	}
	adj := m.Adjacency()
	n := len(m.Atoms)

	// Pass 1: classify bonds into DFS tree edges and back (ring) edges,
	// using the same deterministic traversal order as the emitter.
	treeBond := make([]bool, len(m.Bonds))
	seen := make([]bool, n)
	var classify func(a int)
	classify = func(a int) {
		seen[a] = true
		for _, e := range adj[a] {
			if !seen[e.Nbr] {
				treeBond[e.Bond] = true
				classify(e.Nbr)
			}
		}
	}
	var roots []int
	for s := 0; s < n; s++ {
		if !seen[s] {
			roots = append(roots, s)
			classify(s)
		}
	}

	// Assign each back edge a ring-closure digit and attach it to both
	// endpoints.
	type closure struct {
		digit int
		bond  int
	}
	closures := make([][]closure, n)
	nextDigit := 1
	for bi, b := range m.Bonds {
		if treeBond[bi] {
			continue
		}
		c := closure{digit: nextDigit, bond: bi}
		nextDigit++
		closures[b.A] = append(closures[b.A], c)
		closures[b.B] = append(closures[b.B], c)
	}

	// Pass 2: emit. Ring-closure digits follow their atom token; the
	// bond symbol is written with the first occurrence only (both ends
	// matching is also legal, but one side suffices).
	var sb strings.Builder
	emitted := make([]bool, len(m.Bonds))
	visited := make([]bool, n)
	var dfs func(a int)
	dfs = func(a int) {
		visited[a] = true
		sb.WriteString(atomToken(m.Atoms[a]))
		for _, c := range closures[a] {
			if !emitted[c.bond] {
				sb.WriteString(bondToken(m.Bonds[c.bond]))
				emitted[c.bond] = true
			}
			sb.WriteString(digitToken(c.digit))
		}
		var children []AdjEntry
		for _, e := range adj[a] {
			if treeBond[e.Bond] && !visited[e.Nbr] {
				children = append(children, e)
			}
		}
		for i, e := range children {
			last := i == len(children)-1
			if !last {
				sb.WriteByte('(')
			}
			sb.WriteString(bondToken(m.Bonds[e.Bond]))
			dfs(e.Nbr)
			if !last {
				sb.WriteByte(')')
			}
		}
	}
	for i, s := range roots {
		if i > 0 {
			sb.WriteByte('.')
		}
		dfs(s)
	}
	return sb.String()
}

func atomToken(a Atom) string {
	sym := a.Symbol
	organic := false
	switch sym {
	case "B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I":
		organic = true
	}
	if organic && a.Charge == 0 {
		if a.Aromatic {
			return strings.ToLower(sym)
		}
		return sym
	}
	var sb strings.Builder
	sb.WriteByte('[')
	if a.Aromatic {
		sb.WriteString(strings.ToLower(sym))
	} else {
		sb.WriteString(sym)
	}
	if a.NumH == 1 {
		sb.WriteByte('H')
	} else if a.NumH > 1 {
		fmt.Fprintf(&sb, "H%d", a.NumH)
	}
	if a.Charge > 0 {
		if a.Charge == 1 {
			sb.WriteByte('+')
		} else {
			fmt.Fprintf(&sb, "+%d", a.Charge)
		}
	} else if a.Charge < 0 {
		if a.Charge == -1 {
			sb.WriteByte('-')
		} else {
			fmt.Fprintf(&sb, "-%d", -a.Charge)
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

func bondToken(b Bond) string {
	if b.Aromatic {
		return ""
	}
	switch b.Order {
	case 2:
		return "="
	case 3:
		return "#"
	}
	return ""
}

func digitToken(d int) string {
	if d < 10 {
		return fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("%%%02d", d)
}
