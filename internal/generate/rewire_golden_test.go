package generate

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// hubGraph is a sparse random graph plus one hub adjacent to every
// even-numbered node, so its degree (> DefaultBitsetThreshold) puts the
// depth-3 tracker's bitset probes on the rewiring path.
func hubGraph() *graph.CSR {
	g := connectedRandom(newRng(8), 160, 120)
	for v := 2; v < g.N(); v += 2 {
		if !g.HasEdge(0, v) {
			mustAdd(g, 0, v)
		}
	}
	return g
}

// TestRandomizeGolden pins the rewiring stream: the content hash of
// Randomize's output and its Attempts / Accepted / SelfLoop /
// CensusChanged / Disconnected counts at every depth on two small fixed
// graphs (one also with PreserveConnectivity), at one and two workers.
// Any change to the proposal draws, the order in which candidates are
// consumed, or an accept/reject decision moves a hash. The split of the
// remaining rejections between DuplicateEdge and JDDMismatch depends
// only on the order the structural checks run in, so it is not pinned.
func TestRandomizeGolden(t *testing.T) {
	type golden struct {
		hash                                                    string
		attempts, accepted, selfLoop, censusDelta, disconnected int
	}
	sparse := func() *graph.CSR { return connectedRandom(newRng(5), 60, 80) }
	cases := []struct {
		name      string
		build     func() *graph.CSR
		connected bool      // RandomizeOptions.PreserveConnectivity
		want      [4]golden // by depth
	}{
		{
			name:  "sparse-60",
			build: sparse,
			want: [4]golden{
				{"sha256:248cd83e9380a96f05fe1555da5c9ed7a17d6909ba934a6bd8440cdc64b09381", 1535, 1390, 23, 0, 0},
				{"sha256:31a56fbbc5d1686094cedfa335cf15eff2419d94689585bd6b20e80288ffc85c", 1737, 1390, 116, 0, 0},
				{"sha256:fa3d9fcf83bedf68ec74a976485f5fcb5ce008a22e36826e16242f8131131182", 6982, 1390, 506, 0, 0},
				{"sha256:640a434427e019875bb306d73eb0b4e8e6a7113d1534d03467da7be6671cddc4", 55600, 323, 4136, 9831, 0},
			},
		},
		{
			name:      "sparse-60-connected",
			build:     sparse,
			connected: true,
			want: [4]golden{
				{"sha256:75ecd041ee36bdb0e09ef72ff816ab1c47489584cbeb9deceed50f4c8ca2c679", 1559, 1390, 24, 0, 24},
				{"sha256:31a56fbbc5d1686094cedfa335cf15eff2419d94689585bd6b20e80288ffc85c", 1737, 1390, 116, 0, 0},
				{"sha256:fa3d9fcf83bedf68ec74a976485f5fcb5ce008a22e36826e16242f8131131182", 6982, 1390, 506, 0, 0},
				{"sha256:640a434427e019875bb306d73eb0b4e8e6a7113d1534d03467da7be6671cddc4", 55600, 323, 4136, 9831, 0},
			},
		},
		{
			name:  "hub-160",
			build: hubGraph,
			want: [4]golden{
				{"sha256:a10dd3b4925dc32812ce1c685dd756ce14c19c4364a79adb75f4dde459d1f8d4", 3633, 3510, 24, 0, 0},
				{"sha256:fe18def4cd0533bad6742b464f2e4c366209b6efdf4ff0b07cceff6de499bf79", 4875, 3510, 381, 0, 0},
				{"sha256:0b0a06007f059e018a7003b79010fb12fce256849229a421ec03c3bf55a414dc", 19055, 3510, 1449, 0, 0},
				{"sha256:69793d7ae0aecdb883a168b23bdfaf3823b236a010c649956d24aadd70ab4244", 140400, 1551, 10753, 21914, 0},
			},
		},
	}
	defer parallel.SetWorkers(0)
	for _, tc := range cases {
		for depth := 0; depth <= 3; depth++ {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/d%d/w%d", tc.name, depth, workers), func(t *testing.T) {
					parallel.SetWorkers(workers)
					out, st, err := Randomize(tc.build(), depth, RandomizeOptions{
						Rng:                  newRng(int64(100 + depth)),
						PreserveConnectivity: tc.connected,
					})
					if err != nil {
						t.Fatal(err)
					}
					got := golden{
						hash:         graph.ContentHash(out, nil),
						attempts:     st.Attempts,
						accepted:     st.Accepted,
						selfLoop:     st.Rejected.SelfLoop,
						censusDelta:  st.Rejected.CensusChanged,
						disconnected: st.Rejected.Disconnected,
					}
					if st.Attempts != st.Accepted+st.Rejected.Total() {
						t.Fatalf("attempts invariant broken: %+v", st)
					}
					if got != tc.want[depth] {
						t.Errorf("got  %#v\nwant %#v", got, tc.want[depth])
					}
				})
			}
		}
	}
}
