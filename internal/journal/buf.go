package journal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// enc builds a canonical little-endian record payload.
type enc struct {
	b []byte
}

func newEnc(tag byte) *enc { return &enc{b: []byte{tag}} }

func (e *enc) bytes() []byte { return e.b }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }

func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *enc) i64(v int64) { e.u64(uint64(v)) }

func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) i64s(vs []int64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i64(v)
	}
}

// dec consumes a canonical payload, latching the first error. The must*
// accessors take an *error so straight-line field lists stay readable;
// after the first failure every subsequent read is a no-op.
type dec struct {
	b   []byte
	off int
}

func newDec(b []byte) *dec { return &dec{b: b} }

func (d *dec) take(n int) ([]byte, error) {
	if n < 0 || len(d.b)-d.off < n {
		return nil, fmt.Errorf("journal: truncated payload (need %d bytes at offset %d of %d)", n, d.off, len(d.b))
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *dec) u8() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *dec) u16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *dec) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *dec) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *dec) mustU64(err *error) uint64 {
	if *err != nil {
		return 0
	}
	v, e := d.u64()
	*err = e
	return v
}

func (d *dec) mustI64(err *error) int64 { return int64(d.mustU64(err)) }

func (d *dec) mustF64(err *error) float64 { return math.Float64frombits(d.mustU64(err)) }

func (d *dec) mustBool(err *error) bool {
	if *err != nil {
		return false
	}
	v, e := d.u8()
	if e != nil {
		*err = e
		return false
	}
	if v > 1 {
		*err = fmt.Errorf("journal: non-canonical bool byte %d", v)
		return false
	}
	return v == 1
}

func (d *dec) mustI64s(err *error) []int64 {
	if *err != nil {
		return nil
	}
	n, e := d.u32()
	if e != nil {
		*err = e
		return nil
	}
	if n > maxLen {
		*err = fmt.Errorf("journal: slice length %d exceeds limit %d", n, maxLen)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.mustI64(err)
		if *err != nil {
			return nil
		}
	}
	return out
}

// done requires the payload to be fully consumed; trailing bytes make an
// encoding non-canonical.
func (d *dec) done() error {
	if d.off != len(d.b) {
		return fmt.Errorf("journal: %d trailing bytes after record", len(d.b)-d.off)
	}
	return nil
}
