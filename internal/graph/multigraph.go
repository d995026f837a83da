package graph

// Multigraph is a minimal undirected pseudograph: it permits self-loops
// and parallel edges. The configuration-model ("pseudograph") construction
// algorithms of the paper produce such graphs as an intermediate stage;
// Simplify collapses one into a simple Graph, reporting how much was lost,
// which backs the paper's §5.1 discussion of pseudograph "badnesses".
type Multigraph struct {
	n     int
	edges []Edge
}

// NewMultigraph returns an empty multigraph with n nodes.
func NewMultigraph(n int) *Multigraph {
	return &Multigraph{n: n}
}

// N returns the number of nodes.
func (mg *Multigraph) N() int { return mg.n }

// M returns the number of edges, counting multiplicity and self-loops.
func (mg *Multigraph) M() int { return len(mg.edges) }

// AddEdge appends the edge (u,v); u == v (a self-loop) is allowed.
func (mg *Multigraph) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= mg.n || v >= mg.n {
		panic("graph: multigraph edge out of range")
	}
	mg.edges = append(mg.edges, Edge{u, v}.Canon())
}

// Edges returns the raw edge list (shared; callers must not modify).
func (mg *Multigraph) Edges() []Edge { return mg.edges }

// Badness summarizes what Simplify discarded: the pseudograph defects the
// paper calls "(self-)loops and small connected components".
type Badness struct {
	SelfLoops      int // edges with both ends on one node
	MultiEdges     int // parallel duplicates beyond the first copy
	SmallCCNodes   int // nodes outside the giant connected component
	SmallCCEdges   int // edges outside the giant connected component
	ComponentCount int // connected components before GCC extraction
}

// Simplify removes self-loops and collapses parallel edges, returning the
// resulting simple graph (all nodes retained, including isolated ones) and
// the defect counts. Duplicates keep their first occurrence, so the
// result's edge-list order — and with it every downstream
// index-addressed edge draw — is a pure function of the input order.
// Small-component fields of Badness are filled in only by SimplifyToGCC.
func (mg *Multigraph) Simplify() (*CSR, Badness) {
	var bad Badness
	c := NewCSR(mg.n)
	c.reserve(mg.edges)
	for _, e := range mg.edges {
		if e.U == e.V {
			bad.SelfLoops++
			continue
		}
		if c.HasEdge(e.U, e.V) {
			bad.MultiEdges++
			continue
		}
		if err := c.AddEdge(e.U, e.V); err != nil {
			panic("graph: multigraph simplify: " + err.Error())
		}
	}
	return c, bad
}

// SimplifyToGCC simplifies and then extracts the giant connected
// component, per the paper's pseudograph recipe ("remove all loops and
// extract the largest connected component"). It returns the GCC, the
// new→old node mapping, and full defect accounting.
func (mg *Multigraph) SimplifyToGCC() (*CSR, []int, Badness) {
	simple, bad := mg.Simplify()
	// Isolated nodes are counted as small components of size 1.
	_, sizes := Components(simple)
	bad.ComponentCount = len(sizes)
	gcc, newToOld := GiantComponent(simple)
	bad.SmallCCNodes = simple.N() - gcc.N()
	bad.SmallCCEdges = simple.M() - gcc.M()
	return gcc, newToOld, bad
}
