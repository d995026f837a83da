package subgraphs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"testing"
)

// TestCensusDecodeCanonicalizes: both decoders accept records in any
// order and with unsorted degree triples, decode them to exactly Count's
// census, and re-encode the canonical bytes. The JSON decoder drops
// zero-count records but still rejects a duplicate class when one of
// the pair has a zero count.
func TestCensusDecodeCanonicalizes(t *testing.T) {
	want := Count(hubGraph(rand.New(rand.NewSource(5)), 200, 700).CSR())
	if len(want.Wedges) < 10 || len(want.Triangles) < 3 {
		t.Fatalf("fixture too small: %d wedge / %d triangle classes", len(want.Wedges), len(want.Triangles))
	}
	canonJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	canonBin := want.AppendBinary(nil)
	rng := rand.New(rand.NewSource(1))

	// JSON: wedge ends swapped, triangle triples rotated, a zero-count
	// record added, both arrays shuffled.
	type obj = map[string]int64
	var wedges, tris []obj
	for _, w := range want.Wedges {
		wedges = append(wedges, obj{"k_lo": int64(w.KHi), "k_center": int64(w.KCenter), "k_hi": int64(w.KLo), "count": w.Count})
	}
	for _, tr := range want.Triangles {
		tris = append(tris, obj{"k1": int64(tr.K3), "k2": int64(tr.K1), "k3": int64(tr.K2), "count": tr.Count})
	}
	wedges = append(wedges, obj{"k_lo": 999, "k_center": 998, "k_hi": 997, "count": 0})
	rng.Shuffle(len(wedges), func(i, j int) { wedges[i], wedges[j] = wedges[j], wedges[i] })
	rng.Shuffle(len(tris), func(i, j int) { tris[i], tris[j] = tris[j], tris[i] })
	shuffled, err := json.Marshal(map[string]any{"triangles": tris, "wedges": wedges})
	if err != nil {
		t.Fatal(err)
	}
	var got Census
	if err := json.Unmarshal(shuffled, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("shuffled JSON did not decode to the counted census")
	}
	if b, err := json.Marshal(&got); err != nil || !bytes.Equal(b, canonJSON) {
		t.Fatalf("shuffled JSON re-encoded to different bytes (err %v)", err)
	}

	// DKPB: the same shuffle with wedge ends swapped.
	perm := rng.Perm(len(want.Wedges))
	bin := binary.AppendUvarint(nil, uint64(len(want.Wedges)))
	for _, i := range perm {
		w := want.Wedges[i]
		for _, v := range []int64{int64(w.KCenter), int64(w.KHi), int64(w.KLo), w.Count} {
			bin = binary.AppendUvarint(bin, uint64(v))
		}
	}
	perm = rng.Perm(len(want.Triangles))
	bin = binary.AppendUvarint(bin, uint64(len(want.Triangles)))
	for _, i := range perm {
		tr := want.Triangles[i]
		for _, v := range []int64{int64(tr.K2), int64(tr.K3), int64(tr.K1), tr.Count} {
			bin = binary.AppendUvarint(bin, uint64(v))
		}
	}
	got = Census{}
	if err := got.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("shuffled DKPB did not decode to the counted census")
	}
	if !bytes.Equal(got.AppendBinary(nil), canonBin) {
		t.Fatal("shuffled DKPB re-encoded to different bytes")
	}

	for _, in := range []string{
		`{"wedges":[{"k_lo":1,"k_center":2,"k_hi":3,"count":1},{"k_lo":3,"k_center":2,"k_hi":1,"count":0}],"triangles":[]}`,
		`{"wedges":[],"triangles":[{"k1":1,"k2":2,"k3":3,"count":0},{"k1":3,"k2":1,"k3":2,"count":4}]}`,
		`{"wedges":[{"k_lo":1,"k_center":2,"k_hi":3,"count":-1}],"triangles":[]}`,
		`{"wedges":[],"triangles":[{"k1":1,"k2":2,"k3":3,"count":-2}]}`,
	} {
		if err := json.Unmarshal([]byte(in), &got); err == nil {
			t.Errorf("census %s decoded without error", in)
		}
	}
}
