package sparse_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/linalg/sparse"
	"repro/internal/model"
)

// The compiled elimination program reproduces the scatter/gather
// Doolittle loop bit for bit on the absorption matrices it exists for:
// the NIR chains at every fault tolerance the service accepts (which
// factor with no fill) and the internal-RAID birth-death chains.
func TestCompiledRefactorMatchesOracleOnChains(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nir := closedform.NIRInputs{
		N: 64, R: 48, D: 12,
		LambdaN: 1 / 4e5, LambdaD: 1 / 3e5, MuN: 0.05, MuD: 0.2,
		CHER: 1e-4,
	}
	ir := closedform.IRInputs{
		N: 64, R: 48, LambdaN: 1 / 4e5, LambdaArray: 3e-7, LambdaSector: 1e-8, MuN: 0.05,
	}
	for k := 1; k <= 7; k++ {
		r, _, _ := model.NIRChain(nir, k).AbsorptionMatrix()
		name := fmt.Sprintf("NIR ft %d", k)
		if fill := sparse.CheckAgainstOracle(t, name, sparse.FromDense(r), rng); fill != 0 {
			t.Errorf("%s: %d fill slots, want none", name, fill)
		}
		r, _, _ = model.IRChain(ir, k).AbsorptionMatrix()
		sparse.CheckAgainstOracle(t, fmt.Sprintf("IR ft %d", k), sparse.FromDense(r), rng)
	}
}

// The lane kernels reproduce the scalar kernels bit for bit on the
// absorption solves they serve: four NIR chains of one fault tolerance
// with different drive MTTFs, solved against the initial state's unit
// vector, at every fault tolerance the service accepts.
func TestLanesMatchScalarOnChains(t *testing.T) {
	for k := 1; k <= 10; k++ {
		var (
			a    *sparse.CSR
			vals [sparse.Lanes][]float64
			rhs  [sparse.Lanes][]float64
		)
		for l := range vals {
			nir := closedform.NIRInputs{
				N: 64, R: 48, D: 12,
				LambdaN: 1 / 4e5, LambdaD: 1 / (2e4 * float64(1+3*l)), MuN: 0.05, MuD: 0.2,
				CHER: 1e-4,
			}
			r, _, init := model.NIRChain(nir, k).AbsorptionMatrix()
			m := sparse.FromDense(r)
			if a == nil {
				a = m
			}
			vals[l] = m.Val
			rhs[l] = make([]float64, m.Rows)
			rhs[l][init] = 1
		}
		ok := sparse.CheckLanes(t, fmt.Sprintf("NIR ft %d", k), a, vals, rhs)
		if ok != [sparse.Lanes]bool{true, true, true, true} {
			t.Errorf("NIR ft %d: lanes judged singular: %v", k, ok)
		}
	}
}
