package dk

import (
	"fmt"

	"repro/internal/subgraphs"
)

// The D_d distance metrics of Section 4.1.4: sums of squared differences
// between current and target subgraph counts of each class. Each D_d is
// non-negative and zero exactly when the two dK-distributions coincide.

// D0 is the squared difference of average degrees.
func D0(a, b *Profile) float64 {
	d := a.AvgDegree - b.AvgDegree
	return d * d
}

// D1 is the squared distance between degree distributions (count form).
func D1(a, b *DegreeDist) float64 {
	var sum float64
	for k, na := range a.Count {
		d := float64(na - b.Count[k])
		sum += d * d
	}
	for k, nb := range b.Count {
		if _, seen := a.Count[k]; !seen {
			sum += float64(nb) * float64(nb)
		}
	}
	return sum
}

// D2 is the paper's JDD distance Σ [m_cur(k1,k2) − m_tgt(k1,k2)]².
func D2(a, b *JDD) float64 {
	var sum float64
	for p, ma := range a.Count {
		d := float64(ma - b.Count[p])
		sum += d * d
	}
	for p, mb := range b.Count {
		if _, seen := a.Count[p]; !seen {
			sum += float64(mb) * float64(mb)
		}
	}
	return sum
}

// D3 is the paper's 3K distance: the sum of squared differences between
// current and target wedge counts plus the same for triangle counts — a
// linear merge of the two sorted censuses.
func D3(a, b *subgraphs.Census) float64 {
	wedge := func(w subgraphs.WedgeCount) (subgraphs.WedgeKey, int64) { return w.WedgeKey, w.Count }
	tri := func(t subgraphs.TriangleCount) (subgraphs.TriangleKey, int64) { return t.TriangleKey, t.Count }
	return sqDiff(a.Wedges, b.Wedges, wedge, subgraphs.WedgeKey.Compare) +
		sqDiff(a.Triangles, b.Triangles, tri, subgraphs.TriangleKey.Compare)
}

// sqDiff merges two key-sorted count lists and sums the squared count
// differences, treating a class missing from one side as count 0.
func sqDiff[T, K any](a, b []T, rec func(T) (K, int64), compare func(K, K) int) float64 {
	var sum float64
	for len(a) > 0 || len(b) > 0 {
		var d int64
		switch {
		case len(b) == 0:
			_, d = rec(a[0])
			a = a[1:]
		case len(a) == 0:
			_, d = rec(b[0])
			b = b[1:]
		default:
			ka, na := rec(a[0])
			kb, nb := rec(b[0])
			switch c := compare(ka, kb); {
			case c < 0:
				d = na
				a = a[1:]
			case c > 0:
				d = nb
				b = b[1:]
			default:
				d = na - nb
				a, b = a[1:], b[1:]
			}
		}
		sum += float64(d) * float64(d)
	}
	return sum
}

// Distance returns D_d between two profiles, both of which must have been
// extracted to depth >= d.
func Distance(a, b *Profile, d int) (float64, error) {
	if a.D < d || b.D < d {
		return 0, fmt.Errorf("dk: profiles extracted to depths %d,%d; need >= %d", a.D, b.D, d)
	}
	switch d {
	case 0:
		return D0(a, b), nil
	case 1:
		return D1(a.Degrees, b.Degrees), nil
	case 2:
		return D2(a.Joint, b.Joint), nil
	case 3:
		return D3(a.Census, b.Census), nil
	default:
		return 0, fmt.Errorf("dk: unsupported distance depth %d", d)
	}
}
