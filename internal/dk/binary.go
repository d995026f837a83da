package dk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/subgraphs"
)

// Binary profile format ("DKPB"): the on-disk encoding of an extracted
// dK-profile in the persistent artifact store. The container frames one
// length-prefixed section per distribution at or below the extraction
// depth, each encoded by its own codec (DegreeDist/JDD here, Census in
// internal/subgraphs), so a reader can skip sections it does not need and
// future depths can add sections without breaking old readers.
//
//	magic   "DKPB" (4 bytes)
//	version 0x01   (1 byte)
//	payload (CRC-32 protected from here):
//	  D          uvarint   extraction depth 0..3
//	  N          uvarint   node count
//	  M          uvarint   edge count
//	  avgDegree  8 bytes   IEEE-754 bits, little-endian
//	  if D >= 1: uvarint section length + DegreeDist.MarshalBinary bytes
//	  if D >= 2: uvarint section length + JDD.MarshalBinary bytes
//	  if D >= 3: uvarint section length + Census.MarshalBinary bytes
//	trailer: CRC-32 (IEEE) of the payload, 4 bytes big-endian
//
// All encodings are canonical (classes sorted by degree key, zero counts
// omitted), so equal profiles produce identical bytes.

var profileMagic = [4]byte{'D', 'K', 'P', 'B'}

const profileVersion = 1

// maxSectionBytes bounds a single distribution section; a length prefix
// beyond it is rejected before any allocation.
const maxSectionBytes = 1 << 30

// ErrCorrupt marks binary profile artifacts that fail structural
// validation or checksum verification.
var ErrCorrupt = errors.New("corrupt binary profile")

// MarshalBinary encodes the distribution as sorted (degree, count) records
// with the degrees delta-encoded:
//
//	N uvarint, nClasses uvarint,
//	per class in increasing k: gap uvarint (first k absolute, then k-prev,
//	both >= 1 after the first), count uvarint (>= 1)
func (dd *DegreeDist) MarshalBinary() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(dd.N))
	ks := dd.Degrees()
	nz := 0
	for _, k := range ks {
		if dd.Count[k] != 0 {
			nz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nz))
	prev := 0
	for _, k := range ks {
		n := dd.Count[k]
		if n == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(k-prev))
		dst = binary.AppendUvarint(dst, uint64(n))
		prev = k
	}
	return dst, nil
}

// UnmarshalBinary decodes the encoding produced by MarshalBinary.
func (dd *DegreeDist) UnmarshalBinary(data []byte) error {
	d := profDecoder{buf: data}
	dd.N = d.count("node total")
	nc := d.count("degree classes")
	dd.Count = make(map[int]int, min(nc, 1<<16))
	prev := 0
	for i := 0; i < nc && d.err == nil; i++ {
		gap := d.count("degree gap")
		n := d.count("class count")
		if d.err != nil {
			break
		}
		if gap == 0 && i > 0 {
			return fmt.Errorf("dk: degree classes not strictly increasing")
		}
		if n <= 0 {
			return fmt.Errorf("dk: degree class count %d", n)
		}
		prev += gap
		dd.Count[prev] = n
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("dk: %d trailing bytes after degree distribution", len(d.buf))
	}
	return nil
}

// MarshalBinary encodes the JDD as sorted (k1, k2, count) records with k1
// delta-encoded across records and k2 delta-encoded within a k1 run:
//
//	nClasses uvarint,
//	per class in lexicographic (k1, k2) order:
//	  dk1 uvarint (k1 - prev k1),
//	  k2' uvarint (k2 absolute when dk1 > 0 or first record,
//	               else k2 - prev k2, >= 1),
//	  count uvarint (>= 1)
//
// The edge total M is not stored; it is recomputed from the classes on
// decode, mirroring the JSON codec.
func (j *JDD) MarshalBinary() ([]byte, error) {
	pairs := j.Pairs()
	nz := 0
	for _, p := range pairs {
		if j.Count[p] != 0 {
			nz++
		}
	}
	dst := binary.AppendUvarint(nil, uint64(nz))
	prevK1, prevK2 := 0, 0
	first := true
	for _, p := range pairs {
		m := j.Count[p]
		if m == 0 {
			continue
		}
		dk1 := p.K1 - prevK1
		dst = binary.AppendUvarint(dst, uint64(dk1))
		if first || dk1 > 0 {
			dst = binary.AppendUvarint(dst, uint64(p.K2))
		} else {
			dst = binary.AppendUvarint(dst, uint64(p.K2-prevK2))
		}
		dst = binary.AppendUvarint(dst, uint64(m))
		prevK1, prevK2 = p.K1, p.K2
		first = false
	}
	return dst, nil
}

// UnmarshalBinary decodes the encoding produced by MarshalBinary,
// recomputing the edge total from the classes.
func (j *JDD) UnmarshalBinary(data []byte) error {
	d := profDecoder{buf: data}
	nc := d.count("JDD classes")
	j.M = 0
	j.Count = make(map[DegPair]int, min(nc, 1<<16))
	prevK1, prevK2 := 0, 0
	for i := 0; i < nc && d.err == nil; i++ {
		dk1 := d.count("JDD k1 gap")
		k2v := d.count("JDD k2")
		m := d.count("JDD class count")
		if d.err != nil {
			break
		}
		k1 := prevK1 + dk1
		k2 := k2v
		if i > 0 && dk1 == 0 {
			if k2v == 0 {
				return fmt.Errorf("dk: JDD classes not strictly increasing")
			}
			k2 = prevK2 + k2v
		}
		if k2 < k1 {
			return fmt.Errorf("dk: JDD class (%d,%d) not canonical", k1, k2)
		}
		if m <= 0 {
			return fmt.Errorf("dk: JDD class (%d,%d) count %d", k1, k2, m)
		}
		j.Count[DegPair{k1, k2}] = m
		j.M += m
		prevK1, prevK2 = k1, k2
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("dk: %d trailing bytes after JDD", len(d.buf))
	}
	return nil
}

// WriteProfileBinary writes p in the binary profile format.
func WriteProfileBinary(w io.Writer, p *Profile) error {
	if p.D < 0 || p.D > 3 {
		return fmt.Errorf("dk: profile depth %d outside 0..3", p.D)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(profileMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(profileVersion); err != nil {
		return err
	}
	var crc uint32
	emit := func(p []byte) error {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		_, err := bw.Write(p)
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	emitUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		return emit(scratch[:n])
	}
	if err := emitUvarint(uint64(p.D)); err != nil {
		return err
	}
	if err := emitUvarint(uint64(p.N)); err != nil {
		return err
	}
	if err := emitUvarint(uint64(p.M)); err != nil {
		return err
	}
	var avg [8]byte
	binary.LittleEndian.PutUint64(avg[:], math.Float64bits(p.AvgDegree))
	if err := emit(avg[:]); err != nil {
		return err
	}
	sections := make([][]byte, 0, 3)
	if p.D >= 1 {
		if p.Degrees == nil {
			return fmt.Errorf("dk: depth-%d profile without degrees", p.D)
		}
		b, _ := p.Degrees.MarshalBinary()
		sections = append(sections, b)
	}
	if p.D >= 2 {
		if p.Joint == nil {
			return fmt.Errorf("dk: depth-%d profile without joint", p.D)
		}
		b, _ := p.Joint.MarshalBinary()
		sections = append(sections, b)
	}
	if p.D >= 3 {
		if p.Census == nil {
			return fmt.Errorf("dk: depth-%d profile without census", p.D)
		}
		sections = append(sections, p.Census.AppendBinary(nil))
	}
	for _, sec := range sections {
		if err := emitUvarint(uint64(len(sec))); err != nil {
			return err
		}
		if err := emit(sec); err != nil {
			return err
		}
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc)
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadProfileBinary decodes a profile written by WriteProfileBinary,
// verifying the payload checksum and the structural invariants the JSON
// decoder enforces (sections present up to the stored depth). Use
// Profile.Validate for the full inclusion-identity check.
func ReadProfileBinary(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, pcorruptf("magic: %v", err)
	}
	if [4]byte(hdr[:4]) != profileMagic {
		return nil, pcorruptf("bad magic %q", hdr[:4])
	}
	if hdr[4] != profileVersion {
		return nil, pcorruptf("unsupported version %d", hdr[4])
	}
	c := &crcByteReader{r: br}
	depth, err := readUvarintInt(c, "depth")
	if err != nil {
		return nil, err
	}
	if depth > 3 {
		return nil, pcorruptf("depth %d outside 0..3", depth)
	}
	n, err := readUvarintInt(c, "node count")
	if err != nil {
		return nil, err
	}
	m, err := readUvarintInt(c, "edge count")
	if err != nil {
		return nil, err
	}
	var avg [8]byte
	if err := c.readFull(avg[:]); err != nil {
		return nil, pcorruptf("avg degree: %v", err)
	}
	p := &Profile{
		D: depth, N: n, M: m,
		AvgDegree: math.Float64frombits(binary.LittleEndian.Uint64(avg[:])),
	}
	if depth >= 1 {
		sec, err := readSection(c)
		if err != nil {
			return nil, err
		}
		p.Degrees = &DegreeDist{}
		if err := p.Degrees.UnmarshalBinary(sec); err != nil {
			return nil, fmt.Errorf("dk: %w: degrees: %v", ErrCorrupt, err)
		}
	}
	if depth >= 2 {
		sec, err := readSection(c)
		if err != nil {
			return nil, err
		}
		p.Joint = NewJDD()
		if err := p.Joint.UnmarshalBinary(sec); err != nil {
			return nil, fmt.Errorf("dk: %w: joint: %v", ErrCorrupt, err)
		}
	}
	if depth >= 3 {
		sec, err := readSection(c)
		if err != nil {
			return nil, err
		}
		p.Census = &subgraphs.Census{}
		if err := p.Census.UnmarshalBinary(sec); err != nil {
			return nil, fmt.Errorf("dk: %w: census: %v", ErrCorrupt, err)
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, pcorruptf("checksum trailer: %v", err)
	}
	if got := binary.BigEndian.Uint32(trailer[:]); got != c.crc {
		return nil, pcorruptf("checksum mismatch: payload %08x, trailer %08x", c.crc, got)
	}
	return p, nil
}

// readSection reads one length-prefixed distribution section. The buffer
// grows in chunks, so a forged length cannot force a large allocation.
func readSection(c *crcByteReader) ([]byte, error) {
	ln, err := binary.ReadUvarint(c)
	if err != nil {
		return nil, pcorruptf("section length: %v", err)
	}
	if ln > maxSectionBytes {
		return nil, pcorruptf("section length %d exceeds %d", ln, maxSectionBytes)
	}
	buf := make([]byte, 0, min(int(ln), 1<<20))
	var chunk [64 * 1024]byte
	for remaining := int(ln); remaining > 0; {
		step := min(remaining, len(chunk))
		if err := c.readFull(chunk[:step]); err != nil {
			return nil, pcorruptf("section body: %v", err)
		}
		buf = append(buf, chunk[:step]...)
		remaining -= step
	}
	return buf, nil
}

// readUvarintInt reads a uvarint bounded to int32, the width every profile
// cardinality fits in.
func readUvarintInt(c *crcByteReader, what string) (int, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, pcorruptf("%s: %v", what, err)
	}
	if v > math.MaxInt32 {
		return 0, pcorruptf("%s %d exceeds int32", what, v)
	}
	return int(v), nil
}

func pcorruptf(format string, args ...any) error {
	return fmt.Errorf("dk: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// crcByteReader reads from a buffered reader while accumulating the
// payload CRC.
type crcByteReader struct {
	r   *bufio.Reader
	crc uint32
}

func (c *crcByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	one := [1]byte{b}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, one[:])
	return b, nil
}

func (c *crcByteReader) readFull(p []byte) error {
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return nil
}

// profDecoder reads uvarints from a byte slice with sticky error handling.
type profDecoder struct {
	buf []byte
	err error
}

func (d *profDecoder) count(what string) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("dk: truncated %s", what)
		return 0
	}
	d.buf = d.buf[n:]
	if v > uint64(int(^uint(0)>>1)) {
		d.err = fmt.Errorf("dk: %s %d overflows int", what, v)
		return 0
	}
	return int(v)
}
