package txds

import (
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
)

// Bitmap is a fixed-size bit set — STAMP's lib/bitmap.c, used by ssca2 to
// mark visited vertices and by intruder's flow reassembly.
//
// Layout: header [nBits][dataPtr]; data is packed 64-bit words.
type Bitmap struct{ base mem.Addr }

const (
	bmBits     = 0
	bmData     = 1
	bmHdrWords = 2
)

// NewBitmap allocates a bitmap of nBits bits, all clear.
func NewBitmap(t *htm.Thread, nBits int) Bitmap {
	if nBits < 1 {
		nBits = 1
	}
	words := (nBits + 63) / 64
	h := t.Alloc(bmHdrWords * w)
	data := t.Alloc(words * w)
	sp := t.Engine().Space()
	sp.Label(h, bmHdrWords*w, "txds/bitmap-hdr")
	sp.Label(data, words*w, "txds/bitmap-data")
	storeField(t, h, bmBits, uint64(nBits))
	storeField(t, h, bmData, data)
	return Bitmap{base: h}
}

func (b Bitmap) wordAddr(t *htm.Thread, i int) (mem.Addr, uint64) {
	n := int(loadField(t, b.base, bmBits))
	if i < 0 || i >= n {
		panic("txds: bitmap index out of range")
	}
	data := loadField(t, b.base, bmData)
	return data + uint64(i/64)*w, 1 << (uint(i) & 63)
}

// Set sets bit i, returning false if it was already set (STAMP's
// bitmap_set is test-and-set).
func (b Bitmap) Set(t *htm.Thread, i int) bool {
	a, mask := b.wordAddr(t, i)
	word := t.Load64(a)
	if word&mask != 0 {
		return false
	}
	t.Store64(a, word|mask)
	return true
}
