package dk

import (
	"encoding/json"
	"fmt"

	"repro/internal/subgraphs"
)

// The JSON forms of the dK data model are stable: map-backed distributions
// marshal as arrays of class records sorted by degree key, so the same
// profile always produces the same bytes. The HTTP service exposes these
// encodings on its /v1/extract and /v1/compare responses; they are also a
// durable on-disk format for extracted profiles.

// degreeClassJSON is one degree class of a DegreeDist on the wire.
type degreeClassJSON struct {
	K int `json:"k"`
	N int `json:"n"`
}

// degreeDistJSON is the wire form of DegreeDist.
type degreeDistJSON struct {
	N       int               `json:"n"`
	Classes []degreeClassJSON `json:"classes"`
}

// MarshalJSON encodes the distribution as {"n": N, "classes": [{k, n}…]}
// with classes sorted by increasing degree; zero-count classes are
// omitted, so the encoding is canonical.
func (dd *DegreeDist) MarshalJSON() ([]byte, error) {
	out := degreeDistJSON{N: dd.N, Classes: []degreeClassJSON{}}
	for _, k := range dd.Degrees() {
		if n := dd.Count[k]; n != 0 {
			out.Classes = append(out.Classes, degreeClassJSON{K: k, N: n})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the encoding produced by MarshalJSON and rejects
// duplicate degree classes and negative counts.
func (dd *DegreeDist) UnmarshalJSON(b []byte) error {
	var in degreeDistJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.N < 0 {
		return fmt.Errorf("dk: degree distribution n = %d in JSON", in.N)
	}
	dd.N = in.N
	dd.Count = make(map[int]int, len(in.Classes))
	for _, c := range in.Classes {
		if _, dup := dd.Count[c.K]; dup {
			return fmt.Errorf("dk: duplicate degree class k=%d in JSON", c.K)
		}
		if c.N < 0 {
			return fmt.Errorf("dk: degree class k=%d count %d in JSON", c.K, c.N)
		}
		if c.N != 0 {
			dd.Count[c.K] = c.N
		}
	}
	return nil
}

// edgeClassJSON is one (k1,k2) edge class of a JDD on the wire.
type edgeClassJSON struct {
	K1 int `json:"k1"`
	K2 int `json:"k2"`
	M  int `json:"m"`
}

// jddJSON is the wire form of JDD.
type jddJSON struct {
	M       int             `json:"m"`
	Classes []edgeClassJSON `json:"classes"`
}

// MarshalJSON encodes the JDD as {"m": M, "classes": [{k1, k2, m}…]} in
// lexicographic (k1,k2) order with zero-count classes omitted.
func (j *JDD) MarshalJSON() ([]byte, error) {
	out := jddJSON{M: j.M, Classes: []edgeClassJSON{}}
	for _, p := range j.Pairs() {
		if m := j.Count[p]; m != 0 {
			out.Classes = append(out.Classes, edgeClassJSON{K1: p.K1, K2: p.K2, M: m})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the encoding produced by MarshalJSON. Pairs are
// re-canonicalized (k1 <= k2) on the way in; duplicates and negative
// counts are rejected. The edge total M is recomputed from the classes,
// so inconsistent totals in hand-written JSON cannot enter the data
// model.
func (j *JDD) UnmarshalJSON(b []byte) error {
	var in jddJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.M < 0 {
		return fmt.Errorf("dk: JDD m = %d in JSON", in.M)
	}
	j.M = 0
	j.Count = make(map[DegPair]int, len(in.Classes))
	for _, c := range in.Classes {
		p := NewDegPair(c.K1, c.K2)
		if _, dup := j.Count[p]; dup {
			return fmt.Errorf("dk: duplicate JDD class (%d,%d) in JSON", p.K1, p.K2)
		}
		if c.M < 0 {
			return fmt.Errorf("dk: JDD class (%d,%d) count %d in JSON", p.K1, p.K2, c.M)
		}
		if c.M != 0 {
			j.Count[p] = c.M
			j.M += c.M
		}
	}
	return nil
}

// profileJSON is the wire form of Profile.
type profileJSON struct {
	D         int               `json:"d"`
	N         int               `json:"n"`
	M         int               `json:"m"`
	AvgDegree float64           `json:"avg_degree"`
	Degrees   *DegreeDist       `json:"degrees,omitempty"`
	Joint     *JDD              `json:"joint,omitempty"`
	Census    *subgraphs.Census `json:"census,omitempty"`
}

// MarshalJSON encodes the profile with its distributions in the stable
// sorted-class forms; distributions above the extraction depth are
// omitted.
func (p *Profile) MarshalJSON() ([]byte, error) {
	return json.Marshal(profileJSON{
		D: p.D, N: p.N, M: p.M, AvgDegree: p.AvgDegree,
		Degrees: p.Degrees, Joint: p.Joint, Census: p.Census,
	})
}

// UnmarshalJSON decodes a profile and checks structural consistency: the
// depth must be 0..3 and each distribution at or below the depth must be
// present. Use Validate for the full inclusion-identity check.
func (p *Profile) UnmarshalJSON(b []byte) error {
	var in profileJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.D < 0 || in.D > 3 {
		return fmt.Errorf("dk: profile depth %d outside 0..3", in.D)
	}
	if in.D >= 1 && in.Degrees == nil {
		return fmt.Errorf("dk: profile depth %d without degrees", in.D)
	}
	if in.D >= 2 && in.Joint == nil {
		return fmt.Errorf("dk: profile depth %d without joint", in.D)
	}
	if in.D >= 3 && in.Census == nil {
		return fmt.Errorf("dk: profile depth %d without census", in.D)
	}
	p.D, p.N, p.M, p.AvgDegree = in.D, in.N, in.M, in.AvgDegree
	p.Degrees, p.Joint, p.Census = in.Degrees, in.Joint, in.Census
	return nil
}
