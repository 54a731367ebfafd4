// Package sorted is a small map kept as a slice sorted by key, shared by
// the simulator's per-process tables: the kernel's handle, descriptor
// and environment tables and the address space's written-page index.
package sorted

import (
	"cmp"
	"slices"
)

// Entry is one row of a Table.
type Entry[K cmp.Ordered, V any] struct {
	Key K
	Val V
}

// Table is a small map kept as a slice sorted by key.  The tables it
// serves hold a handful of rows, so a binary search over a slice that
// can start in an inline array of its owner costs no allocation of its
// own, and iteration is in key order.
type Table[K cmp.Ordered, V any] []Entry[K, V]

// Search returns the index of key k, or where a row for k would go, and
// whether the row is present.
func (t Table[K, V]) Search(k K) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].Key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].Key == k
}

// Get returns the value stored under k.
func (t Table[K, V]) Get(k K) (V, bool) {
	if i, ok := t.Search(k); ok {
		return t[i].Val, true
	}
	var zero V
	return zero, false
}

// Set stores v under k, reporting whether it replaced a row.  A key
// above every row's, the usual case for handles, descriptors and pages
// written in address order, is appended without a search.
func (t *Table[K, V]) Set(k K, v V) bool {
	if n := len(*t); n == 0 || (*t)[n-1].Key < k {
		*t = append(*t, Entry[K, V]{k, v})
		return false
	}
	i, ok := t.Search(k)
	if ok {
		(*t)[i].Val = v
		return true
	}
	*t = slices.Insert(*t, i, Entry[K, V]{k, v})
	return false
}

// Remove deletes the row for k, returning its value and whether it was
// present.
func (t *Table[K, V]) Remove(k K) (V, bool) {
	i, ok := t.Search(k)
	if !ok {
		var zero V
		return zero, false
	}
	v := (*t)[i].Val
	*t = slices.Delete(*t, i, i+1)
	return v, true
}
