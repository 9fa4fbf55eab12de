package sim

import "math/bits"

// indexKey is a key of an index: comparable, and hashed by the key type
// itself so the index needs no hash function of its own.
type indexKey interface {
	comparable
	hash() uint64
}

// index maps keys to values in one open-addressing table: a power-of-two
// slot array probed linearly from each key's home slot, with every key,
// its hash and its value stored inline. A slot is live only while its
// stamp equals the index's epoch, so reset empties the index by
// advancing the epoch, at a cost independent of how many entries the
// index ever held. Entries are never deleted one by one; the index grows
// by doubling and keeps its slots across resets. The zero index is empty
// and ready to use.
type index[K indexKey, V any] struct {
	slots []indexSlot[K, V]
	// epoch is the stamp of the live slots; it is never 0 once slots
	// exist, so a slot stamped 0 (fresh, or cleared at a wrap) is empty.
	epoch uint32
	// n counts the live slots; shift is 64 - log2(len(slots)).
	n     int
	shift uint8
}

// indexSlot is one slot of an index.
type indexSlot[K indexKey, V any] struct {
	hash  uint64
	key   K
	epoch uint32
	val   V
}

// indexMinSlots is the slot count of an index's first table.
const indexMinSlots = 16

// home returns the first slot probed for hash h: the top bits of a
// Fibonacci multiply, so keys whose hashes differ only in high or only
// in low bits still spread across the table.
func (x *index[K, V]) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> x.shift)
}

// get returns the value stored under k.
//
//rbvet:noalloc
func (x *index[K, V]) get(k K) (V, bool) {
	if x.n > 0 {
		h, mask := k.hash(), len(x.slots)-1
		for i := x.home(h); x.slots[i].epoch == x.epoch; i = (i + 1) & mask {
			if s := &x.slots[i]; s.hash == h && s.key == k {
				return s.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// put returns a pointer to the value stored under k, storing the zero
// value first when k is absent; found reports whether k was present.
// The pointer is valid until the next put or reset.
func (x *index[K, V]) put(k K) (v *V, found bool) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	h, mask := k.hash(), len(x.slots)-1
	i := x.home(h)
	for ; x.slots[i].epoch == x.epoch; i = (i + 1) & mask {
		if s := &x.slots[i]; s.hash == h && s.key == k {
			return &s.val, true
		}
	}
	var zero V
	x.slots[i] = indexSlot[K, V]{hash: h, key: k, epoch: x.epoch, val: zero}
	x.n++
	return &x.slots[i].val, false
}

// grow doubles the table (or makes the first one) and re-inserts the
// live entries, keeping the load at most one half.
func (x *index[K, V]) grow() {
	old := x.slots
	size := max(indexMinSlots, 2*len(old))
	x.slots = make([]indexSlot[K, V], size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	if x.epoch == 0 {
		x.epoch = 1
	}
	mask := size - 1
	for j := range old {
		s := &old[j]
		if s.epoch != x.epoch {
			continue
		}
		i := x.home(s.hash)
		for x.slots[i].epoch == x.epoch {
			i = (i + 1) & mask
		}
		x.slots[i] = *s
	}
}

// reset empties the index in O(1): the live stamp moves on, so every
// slot reads as empty. When the epoch counter wraps, a stamp as old as
// the new epoch could read as live again, so the stamps are cleared
// first.
func (x *index[K, V]) reset() {
	x.n = 0
	x.epoch++
	if x.epoch == 0 {
		for i := range x.slots {
			x.slots[i].epoch = 0
		}
		x.epoch = 1
	}
}

// len returns the number of entries.
func (x *index[K, V]) len() int { return x.n }
