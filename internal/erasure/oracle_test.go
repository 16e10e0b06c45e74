package erasure

// Test-only: the GF(2⁸) helpers the field arithmetic is tested with.

// Add returns a+b in GF(2⁸) (carry-less, so addition is XOR and equals
// subtraction).
func Add(a, b byte) byte { return a ^ b }

// Div returns a/b in GF(2⁸). It panics on division by zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	d := int(tables.log[a]) - int(tables.log[b])
	if d < 0 {
		d += 255
	}
	return tables.exp[d]
}

// Exp returns the generator raised to the n-th power.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return tables.exp[n]
}
