package subgraphs

import (
	"encoding/json"
	"fmt"
	"slices"
)

// The JSON form of a census lists wedge and triangle classes as explicit
// records sorted by their canonical degree keys, rather than as maps:
// encoding/json cannot key objects by struct types, and sorted arrays make
// the encoding stable — the same census always marshals to the same bytes,
// which the HTTP service relies on for cacheable, diffable responses.
//
//	{"wedges":    [{"k_lo", "k_center", "k_hi", "count"}…],
//	 "triangles": [{"k1", "k2", "k3", "count"}…]}

// censusJSON is the wire form of Census.
type censusJSON struct {
	Wedges    []WedgeCount    `json:"wedges"`
	Triangles []TriangleCount `json:"triangles"`
}

// MarshalJSON encodes the census as its sorted wedge and triangle class
// arrays, which are already in wire order.
func (c *Census) MarshalJSON() ([]byte, error) {
	out := censusJSON{Wedges: c.Wedges, Triangles: c.Triangles}
	if out.Wedges == nil {
		out.Wedges = []WedgeCount{}
	}
	if out.Triangles == nil {
		out.Triangles = []TriangleCount{}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the sorted-array census encoding produced by
// MarshalJSON. Hand-written JSON is accepted in any record order and
// with unsorted degree triples — keys are re-canonicalized and records
// sorted on the way in — and zero-count records are dropped. Duplicate
// classes (zero counts included) and negative counts are rejected.
func (c *Census) UnmarshalJSON(b []byte) error {
	var in censusJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	for i := range in.Wedges {
		w := &in.Wedges[i]
		w.WedgeKey = NewWedgeKey(w.KLo, w.KCenter, w.KHi)
		if w.Count < 0 {
			return fmt.Errorf("subgraphs: wedge class %+v count %d in JSON", w.WedgeKey, w.Count)
		}
	}
	for i := range in.Triangles {
		tr := &in.Triangles[i]
		tr.TriangleKey = NewTriangleKey(tr.K1, tr.K2, tr.K3)
		if tr.Count < 0 {
			return fmt.Errorf("subgraphs: triangle class %+v count %d in JSON", tr.TriangleKey, tr.Count)
		}
	}
	c.Wedges, c.Triangles = in.Wedges, in.Triangles
	if err := c.sortClasses(); err != nil {
		return err
	}
	c.Wedges = slices.DeleteFunc(c.Wedges, func(w WedgeCount) bool { return w.Count == 0 })
	c.Triangles = slices.DeleteFunc(c.Triangles, func(t TriangleCount) bool { return t.Count == 0 })
	return nil
}

// sortClasses sorts decoded records with canonical keys into census
// order and rejects duplicate classes.
func (c *Census) sortClasses() error {
	slices.SortFunc(c.Wedges, func(a, b WedgeCount) int { return a.Compare(b.WedgeKey) })
	for i := 1; i < len(c.Wedges); i++ {
		if k := c.Wedges[i].WedgeKey; k == c.Wedges[i-1].WedgeKey {
			return fmt.Errorf("subgraphs: duplicate wedge class %+v", k)
		}
	}
	slices.SortFunc(c.Triangles, func(a, b TriangleCount) int { return a.Compare(b.TriangleKey) })
	for i := 1; i < len(c.Triangles); i++ {
		if k := c.Triangles[i].TriangleKey; k == c.Triangles[i-1].TriangleKey {
			return fmt.Errorf("subgraphs: duplicate triangle class %+v", k)
		}
	}
	return nil
}
