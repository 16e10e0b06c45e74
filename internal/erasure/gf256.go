// Package erasure implements systematic Reed–Solomon erasure coding over
// GF(2⁸) — the inter-node redundancy mechanism the paper assumes (its
// references [2], [3]). The storage and simulation layers use it to make
// rebuild data paths executable: any R-t of the R elements of a redundancy
// set suffice to reconstruct the rest.
package erasure

import "fmt"

// polynomial is the primitive polynomial x⁸+x⁴+x³+x²+1 (0x11d) generating
// the field.
const polynomial = 0x11d

// gfTables holds the exponential and logarithm tables of the field.
type gfTables struct {
	exp [512]byte // doubled to skip a modulo in Mul
	log [256]byte
}

var tables = buildTables()

func buildTables() *gfTables {
	var t gfTables
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := 255; i < 512; i++ {
		t.exp[i] = t.exp[i-255]
	}
	return &t
}

// Mul returns a·b in GF(2⁸).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return tables.exp[int(tables.log[a])+int(tables.log[b])]
}

// Inv returns the multiplicative inverse of a. It panics for a = 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("erasure: zero has no inverse in GF(256)")
	}
	return tables.exp[255-int(tables.log[a])]
}

// mulSlice computes out[i] ^= c·in[i] over a slice — the inner loop of
// encoding and reconstruction.
func mulSlice(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic(fmt.Sprintf("erasure: mulSlice length mismatch %d vs %d", len(in), len(out)))
	}
	if c == 0 {
		return
	}
	logC := int(tables.log[c])
	for i, v := range in {
		if v != 0 {
			out[i] ^= tables.exp[logC+int(tables.log[v])]
		}
	}
}
