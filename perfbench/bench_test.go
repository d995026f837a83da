package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !reflect.DeepEqual(names, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", names, defined)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestTinyRuns runs every workload at tiny scale, untraced and traced,
// and requires every declared metric with its unit and no failed check.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			cfg := config{workload: w.name, seed: 7, seconds: 0.5, trace: traced, tiny: true, outDir: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, name, m, ok, unit)
				}
			}
		}
	}
}

// TestStreamsArePure checks that inputs and job streams are pure
// functions of the workload seed.
func TestStreamsArePure(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		a := newASStream(seed)
		b := newASStream(seed)
		c := newCensusStream(seed, 7)
		d := newCensusStream(seed, 7)
		for i := 0; i < 20; i++ {
			if x, y := a.round(), b.round(); !reflect.DeepEqual(x, y) {
				t.Fatalf("as-ensemble seed %d round %d: %v vs %v", seed, i, x, y)
			}
			if x, y := c.round(), d.round(); !reflect.DeepEqual(x, y) {
				t.Fatalf("census-analysis seed %d round %d: %v vs %v", seed, i, x, y)
			}
		}
		for caller := 0; caller < serveCallers; caller++ {
			e := newServeStream(seed, caller, 96)
			f := newServeStream(seed, caller, 96)
			for i := 0; i < 200; i++ {
				if x, y := e.next(), f.next(); x != y {
					t.Fatalf("serve-mixed seed %d caller %d request %d: %v vs %v", seed, caller, i, x, y)
				}
			}
		}
	}
	if reflect.DeepEqual(newASStream(1).round(), newASStream(2).round()) {
		t.Error("as-ensemble: seeds 1 and 2 give the same round")
	}
	if newServeStream(1, 0, 96).next() == newServeStream(1, 1, 96).next() &&
		newServeStream(1, 0, 96).next() == newServeStream(2, 0, 96).next() {
		t.Error("serve-mixed: streams do not depend on caller or seed")
	}
	for _, w := range workloads {
		var digests []string
		for i := 0; i < 2; i++ {
			var sb strings.Builder
			cfg := config{workload: w.name, seed: 5, tiny: true, outDir: t.TempDir(), log: &sb}
			b, err := w.setup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.close(); err != nil {
				t.Fatal(err)
			}
			digests = append(digests, sb.String())
		}
		if digests[0] != digests[1] || digests[0] == "" {
			t.Errorf("%s: inputs differ between two setups of one seed:\n%s\n%s", w.name, digests[0], digests[1])
		}
	}
}
