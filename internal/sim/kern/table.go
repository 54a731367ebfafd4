package kern

import (
	"cmp"
	"slices"
)

// entry is one row of a table.
type entry[K cmp.Ordered, V any] struct {
	key K
	val V
}

// table is a small map kept as a slice sorted by key.  A test process's
// handle, descriptor and environment tables hold a handful of rows, so a
// binary search over a slice that starts in an inline array of the
// process costs no allocation of its own, and iteration is in key order.
type table[K cmp.Ordered, V any] []entry[K, V]

// search returns the index of key k, or where a row for k would go, and
// whether the row is present.
func (t table[K, V]) search(k K) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].key == k
}

// get returns the value stored under k.
func (t table[K, V]) get(k K) (V, bool) {
	if i, ok := t.search(k); ok {
		return t[i].val, true
	}
	var zero V
	return zero, false
}

// set stores v under k, reporting whether it replaced a row.
func (t *table[K, V]) set(k K, v V) bool {
	i, ok := t.search(k)
	if ok {
		(*t)[i].val = v
		return true
	}
	*t = slices.Insert(*t, i, entry[K, V]{k, v})
	return false
}

// remove deletes the row for k, returning its value and whether it was
// present.
func (t *table[K, V]) remove(k K) (V, bool) {
	i, ok := t.search(k)
	if !ok {
		var zero V
		return zero, false
	}
	v := (*t)[i].val
	*t = slices.Delete(*t, i, i+1)
	return v, true
}
