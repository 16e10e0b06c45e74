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
