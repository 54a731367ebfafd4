package sorted

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refSet is Set without the append fast path: every key is searched for
// and inserted where it belongs.
func refSet[K cmp.Ordered, V any](t *Table[K, V], k K, v V) bool {
	i, ok := t.Search(k)
	if ok {
		(*t)[i].Val = v
		return true
	}
	*t = slices.Insert(*t, i, Entry[K, V]{k, v})
	return false
}

// TestSetAppendMatchesInsert: Set, which appends a key above every
// row's, builds the same table as the search-and-insert refSet for every
// insertion order of up to six keys, with replacements and removals
// mixed in; after every step the rows ascend and Get finds exactly them.
func TestSetAppendMatchesInsert(t *testing.T) {
	var orders func(n int, prefix []int, fn func([]int))
	orders = func(n int, prefix []int, fn func([]int)) {
		if len(prefix) == n {
			fn(prefix)
			return
		}
		for k := 0; k < n; k++ {
			if !slices.Contains(prefix, k) {
				orders(n, append(prefix, k), fn)
			}
		}
	}
	seq := 0
	for n := 1; n <= 6; n++ {
		orders(n, nil, func(order []int) {
			seq++
			rng := rand.New(rand.NewSource(int64(seq)))
			var got, want Table[int, int]
			compare := func(op string) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("order %v, %s: table %v, want %v", order, op, got, want)
				}
				// Rows ascend strictly, and Get finds each row's key and
				// none between or around them.
				for j, e := range got {
					if j > 0 && got[j-1].Key >= e.Key {
						t.Fatalf("order %v, %s: table %v is not in key order", order, op, got)
					}
					if v, ok := got.Get(e.Key); !ok || v != e.Val {
						t.Fatalf("order %v, %s: Get(%d) = %d %v, want %d", order, op, e.Key, v, ok, e.Val)
					}
				}
				for k := 0; k <= 4+4*n; k += 2 {
					if _, ok := got.Get(k); ok != slices.ContainsFunc(got, func(e Entry[int, int]) bool { return e.Key == k }) {
						t.Fatalf("order %v, %s: Get(%d) found %v", order, op, k, ok)
					}
				}
			}
			for i, k := range order {
				h := 4 + 4*k
				if g, w := got.Set(h, i), refSet(&want, h, i); g != w {
					t.Fatalf("order %v: set(%#x) replaced %v, want %v", order, h, g, w)
				}
				compare(fmt.Sprintf("set(%#x)", h))
				// Replace, remove, or remove and add again a key seen so far.
				old := 4 + 4*order[rng.Intn(i+1)]
				switch rng.Intn(4) {
				case 0:
					if g, w := got.Set(old, -i), refSet(&want, old, -i); g != w {
						t.Fatalf("order %v: replacing %#x reported %v, want %v", order, old, g, w)
					}
				case 1:
					g, gok := got.Remove(old)
					w, wok := want.Remove(old)
					if g != w || gok != wok {
						t.Fatalf("order %v: remove(%#x) = %v %v, want %v %v", order, old, g, gok, w, wok)
					}
				case 2:
					got.Remove(old)
					want.Remove(old)
					got.Set(old, 100+i)
					refSet(&want, old, 100+i)
				}
				compare(fmt.Sprintf("after set(%#x), key %#x", h, old))
			}
		})
	}
}
