package txds

import (
	"fmt"

	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// RBTree is a red-black tree with unique int64 keys — STAMP's lib/rbtree.c.
// The original intruder and vacation use it for unordered sets, which the
// paper identifies as TM-unfriendly (Section 4): every operation walks a
// log-n path and rebalancing writes fan out across the tree, inflating both
// read and write footprints. The modified benchmarks keep it only where
// order matters.
//
// The implementation is the classic CLRS algorithm with parent pointers and
// a shared nil sentinel, executed entirely through transactional loads and
// stores on simulated memory.
//
// Layout: header [root][sentinel]; node [key][val][left][right][parent][color].
type RBTree struct{ base mem.Addr }

const (
	rbKey       = 0
	rbVal       = 1
	rbLeft      = 2
	rbRight     = 3
	rbParent    = 4
	rbColor     = 5
	rbNodeWords = 6

	rbHdrRoot     = 0
	rbHdrSentinel = 1
	rbHdrWords    = 2
)

const (
	red   = 0
	black = 1
)

// NewRBTree allocates an empty tree.
func NewRBTree(t *htm.Thread) RBTree {
	// Not labelled: intruder's modified variant creates trees inside
	// transactions, and the region registry is setup-time only.
	h := t.Alloc(rbHdrWords * w)
	nilN := t.Alloc(rbNodeWords * w)
	storeField(t, nilN, rbColor, black)
	storeField(t, nilN, rbLeft, nilN)
	storeField(t, nilN, rbRight, nilN)
	storeField(t, nilN, rbParent, nilN)
	storeField(t, h, rbHdrRoot, nilN)
	storeField(t, h, rbHdrSentinel, nilN)
	return RBTree{base: h}
}

// Handle returns the tree's base address; RBTreeAt reverses it.
func (r RBTree) Handle() mem.Addr { return r.base }

// RBTreeAt reinterprets a stored handle as an RBTree.
func RBTreeAt(a mem.Addr) RBTree { return RBTree{base: a} }

func (r RBTree) root(t *htm.Thread) mem.Addr       { return loadField(t, r.base, rbHdrRoot) }
func (r RBTree) setRoot(t *htm.Thread, n mem.Addr) { storeField(t, r.base, rbHdrRoot, n) }
func (r RBTree) nilN(t *htm.Thread) mem.Addr       { return loadField(t, r.base, rbHdrSentinel) }

func key(t *htm.Thread, n mem.Addr) int64          { return int64(loadField(t, n, rbKey)) }
func left(t *htm.Thread, n mem.Addr) mem.Addr      { return loadField(t, n, rbLeft) }
func right(t *htm.Thread, n mem.Addr) mem.Addr     { return loadField(t, n, rbRight) }
func parent(t *htm.Thread, n mem.Addr) mem.Addr    { return loadField(t, n, rbParent) }
func color(t *htm.Thread, n mem.Addr) uint64       { return loadField(t, n, rbColor) }
func setLeft(t *htm.Thread, n, v mem.Addr)         { storeField(t, n, rbLeft, v) }
func setRight(t *htm.Thread, n, v mem.Addr)        { storeField(t, n, rbRight, v) }
func setParent(t *htm.Thread, n, v mem.Addr)       { storeField(t, n, rbParent, v) }
func setColor(t *htm.Thread, n mem.Addr, c uint64) { storeField(t, n, rbColor, c) }

func (r RBTree) leftRotate(t *htm.Thread, x mem.Addr) {
	nilN := r.nilN(t)
	y := right(t, x)
	setRight(t, x, left(t, y))
	if left(t, y) != nilN {
		setParent(t, left(t, y), x)
	}
	setParent(t, y, parent(t, x))
	if parent(t, x) == nilN {
		r.setRoot(t, y)
	} else if x == left(t, parent(t, x)) {
		setLeft(t, parent(t, x), y)
	} else {
		setRight(t, parent(t, x), y)
	}
	setLeft(t, y, x)
	setParent(t, x, y)
}

func (r RBTree) rightRotate(t *htm.Thread, x mem.Addr) {
	nilN := r.nilN(t)
	y := left(t, x)
	setLeft(t, x, right(t, y))
	if right(t, y) != nilN {
		setParent(t, right(t, y), x)
	}
	setParent(t, y, parent(t, x))
	if parent(t, x) == nilN {
		r.setRoot(t, y)
	} else if x == right(t, parent(t, x)) {
		setRight(t, parent(t, x), y)
	} else {
		setLeft(t, parent(t, x), y)
	}
	setRight(t, y, x)
	setParent(t, x, y)
}

// Insert adds k→val, returning false if k is already present.
func (r RBTree) Insert(t *htm.Thread, k int64, val uint64) bool {
	nilN := r.nilN(t)
	y := nilN
	x := r.root(t)
	for x != nilN {
		y = x
		kx := key(t, x)
		switch {
		case k == kx:
			return false
		case k < kx:
			x = left(t, x)
		default:
			x = right(t, x)
		}
	}
	z := t.Alloc(rbNodeWords * w)
	storeField(t, z, rbKey, uint64(k))
	storeField(t, z, rbVal, val)
	setParent(t, z, y)
	if y == nilN {
		r.setRoot(t, z)
	} else if k < key(t, y) {
		setLeft(t, y, z)
	} else {
		setRight(t, y, z)
	}
	setLeft(t, z, nilN)
	setRight(t, z, nilN)
	setColor(t, z, red)
	r.insertFixup(t, z)
	return true
}

func (r RBTree) insertFixup(t *htm.Thread, z mem.Addr) {
	for color(t, parent(t, z)) == red {
		p := parent(t, z)
		g := parent(t, p)
		if p == left(t, g) {
			y := right(t, g)
			if color(t, y) == red {
				setColor(t, p, black)
				setColor(t, y, black)
				setColor(t, g, red)
				z = g
			} else {
				if z == right(t, p) {
					z = p
					r.leftRotate(t, z)
				}
				p = parent(t, z)
				g = parent(t, p)
				setColor(t, p, black)
				setColor(t, g, red)
				r.rightRotate(t, g)
			}
		} else {
			y := left(t, g)
			if color(t, y) == red {
				setColor(t, p, black)
				setColor(t, y, black)
				setColor(t, g, red)
				z = g
			} else {
				if z == left(t, p) {
					z = p
					r.rightRotate(t, z)
				}
				p = parent(t, z)
				g = parent(t, p)
				setColor(t, p, black)
				setColor(t, g, red)
				r.leftRotate(t, g)
			}
		}
	}
	setColor(t, r.root(t), black)
}

// lookup returns the node with key k, or the sentinel.
func (r RBTree) lookup(t *htm.Thread, k int64) mem.Addr {
	nilN := r.nilN(t)
	x := r.root(t)
	for x != nilN {
		kx := key(t, x)
		switch {
		case k == kx:
			return x
		case k < kx:
			x = left(t, x)
		default:
			x = right(t, x)
		}
	}
	return nilN
}

// Get returns the value stored under k.
func (r RBTree) Get(t *htm.Thread, k int64) (uint64, bool) {
	n := r.lookup(t, k)
	if n == r.nilN(t) {
		return 0, false
	}
	return loadField(t, n, rbVal), true
}

func (r RBTree) minimum(t *htm.Thread, x mem.Addr) mem.Addr {
	nilN := r.nilN(t)
	for left(t, x) != nilN {
		x = left(t, x)
	}
	return x
}

func (r RBTree) transplant(t *htm.Thread, u, v mem.Addr) {
	nilN := r.nilN(t)
	up := parent(t, u)
	if up == nilN {
		r.setRoot(t, v)
	} else if u == left(t, up) {
		setLeft(t, up, v)
	} else {
		setRight(t, up, v)
	}
	setParent(t, v, up)
}

// Remove deletes k, returning its value and whether it was present.
func (r RBTree) Remove(t *htm.Thread, k int64) (uint64, bool) {
	nilN := r.nilN(t)
	z := r.lookup(t, k)
	if z == nilN {
		return 0, false
	}
	val := loadField(t, z, rbVal)

	y := z
	yColor := color(t, y)
	var x mem.Addr
	switch {
	case left(t, z) == nilN:
		x = right(t, z)
		r.transplant(t, z, x)
	case right(t, z) == nilN:
		x = left(t, z)
		r.transplant(t, z, x)
	default:
		y = r.minimum(t, right(t, z))
		yColor = color(t, y)
		x = right(t, y)
		if parent(t, y) == z {
			setParent(t, x, y) // x may be the sentinel; CLRS relies on this
		} else {
			r.transplant(t, y, x)
			setRight(t, y, right(t, z))
			setParent(t, right(t, y), y)
		}
		r.transplant(t, z, y)
		setLeft(t, y, left(t, z))
		setParent(t, left(t, y), y)
		setColor(t, y, color(t, z))
	}
	if yColor == black {
		r.deleteFixup(t, x)
	}
	t.Free(z)
	return val, true
}

func (r RBTree) deleteFixup(t *htm.Thread, x mem.Addr) {
	for x != r.root(t) && color(t, x) == black {
		p := parent(t, x)
		if x == left(t, p) {
			w2 := right(t, p)
			if color(t, w2) == red {
				setColor(t, w2, black)
				setColor(t, p, red)
				r.leftRotate(t, p)
				p = parent(t, x)
				w2 = right(t, p)
			}
			if color(t, left(t, w2)) == black && color(t, right(t, w2)) == black {
				setColor(t, w2, red)
				x = p
			} else {
				if color(t, right(t, w2)) == black {
					setColor(t, left(t, w2), black)
					setColor(t, w2, red)
					r.rightRotate(t, w2)
					p = parent(t, x)
					w2 = right(t, p)
				}
				setColor(t, w2, color(t, p))
				setColor(t, p, black)
				setColor(t, right(t, w2), black)
				r.leftRotate(t, p)
				x = r.root(t)
			}
		} else {
			w2 := left(t, p)
			if color(t, w2) == red {
				setColor(t, w2, black)
				setColor(t, p, red)
				r.rightRotate(t, p)
				p = parent(t, x)
				w2 = left(t, p)
			}
			if color(t, right(t, w2)) == black && color(t, left(t, w2)) == black {
				setColor(t, w2, red)
				x = p
			} else {
				if color(t, left(t, w2)) == black {
					setColor(t, right(t, w2), black)
					setColor(t, w2, red)
					r.leftRotate(t, w2)
					p = parent(t, x)
					w2 = left(t, p)
				}
				setColor(t, w2, color(t, p))
				setColor(t, p, black)
				setColor(t, left(t, w2), black)
				r.rightRotate(t, p)
				x = r.root(t)
			}
		}
	}
	setColor(t, x, black)
}

// Each calls fn for every (key, value) in ascending order; fn returning
// false stops the walk. The walk is iterative (successor-based) so it works
// on simulated memory without recursion limits.
func (r RBTree) Each(t *htm.Thread, fn func(k int64, v uint64) bool) {
	nilN := r.nilN(t)
	x := r.root(t)
	if x == nilN {
		return
	}
	x = r.minimum(t, x)
	for x != nilN {
		if !fn(key(t, x), loadField(t, x, rbVal)) {
			return
		}
		// Successor of x.
		if right(t, x) != nilN {
			x = r.minimum(t, right(t, x))
		} else {
			p := parent(t, x)
			for p != nilN && x == right(t, p) {
				x = p
				p = parent(t, p)
			}
			x = p
		}
	}
}

// CheckInvariants verifies the red-black properties (test support): root is
// black, no red node has a red child, all root-to-sentinel paths have equal
// black height, and keys are ordered. It returns an error describing the
// first violation.
func (r RBTree) CheckInvariants(t *htm.Thread) error {
	nilN := r.nilN(t)
	root := r.root(t)
	if root == nilN {
		return nil
	}
	if color(t, root) != black {
		return fmt.Errorf("rbtree: root is red")
	}
	var check func(n mem.Addr, lo, hi int64, loOK, hiOK bool) (int, error)
	check = func(n mem.Addr, lo, hi int64, loOK, hiOK bool) (int, error) {
		if n == nilN {
			return 1, nil
		}
		k := key(t, n)
		if loOK && k <= lo {
			return 0, fmt.Errorf("rbtree: key %d violates lower bound %d", k, lo)
		}
		if hiOK && k >= hi {
			return 0, fmt.Errorf("rbtree: key %d violates upper bound %d", k, hi)
		}
		if color(t, n) == red {
			if color(t, left(t, n)) == red || color(t, right(t, n)) == red {
				return 0, fmt.Errorf("rbtree: red node %d has red child", k)
			}
		}
		lb, err := check(left(t, n), lo, k, loOK, true)
		if err != nil {
			return 0, err
		}
		rb, err := check(right(t, n), k, hi, true, hiOK)
		if err != nil {
			return 0, err
		}
		if lb != rb {
			return 0, fmt.Errorf("rbtree: black-height mismatch at key %d (%d vs %d)", k, lb, rb)
		}
		h := lb
		if color(t, n) == black {
			h++
		}
		return h, nil
	}
	_, err := check(root, 0, 0, false, false)
	return err
}
