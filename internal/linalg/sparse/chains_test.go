package sparse_test

import (
	"fmt"
	"math"
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

// Compiled programs reproduce the scalar kernels bit for bit on the
// absorption solves they serve: four NIR chains of one fault tolerance
// with different drive MTTFs, solved against the initial state's unit
// vector, at every fault tolerance the service accepts — with the
// identity source map, and with the map the values themselves show:
// two stored values share a source when they are equal in every lane,
// which is what the NIR chain's rate classes and exit sums give.
func TestLanesMatchScalarOnChains(t *testing.T) {
	for k := 1; k <= 10; k++ {
		var (
			a    *sparse.CSR
			init int
			vals [sparse.Lanes][]float64
		)
		for l := range vals {
			nir := closedform.NIRInputs{
				N: 64, R: 48, D: 12,
				LambdaN: 1 / 4e5, LambdaD: 1 / (2e4 * float64(1+3*l)), MuN: 0.05, MuD: 0.2,
				CHER: 1e-4,
			}
			r, _, i := model.NIRChain(nir, k).AbsorptionMatrix()
			m := sparse.FromDense(r)
			if a == nil {
				a, init = m, i
			}
			vals[l] = m.Val
		}
		id := make([]int, a.NNZ())
		for q := range id {
			id[q] = q
		}
		name := fmt.Sprintf("NIR ft %d", k)
		if ok := sparse.CheckProgram(t, name, a, id, len(id), init, vals); ok != [sparse.Lanes]bool{true, true, true, true} {
			t.Errorf("%s: lanes rejected: %v", name, ok)
		}
		src, shared := valueSources(vals)
		if k >= 5 && len(shared[0]) > a.NNZ()/4 {
			t.Errorf("%s: %d sources for %d stored values; the chain's values must repeat", name, len(shared[0]), a.NNZ())
		}
		if ok := sparse.CheckProgram(t, name+" shared", a, src, len(shared[0]), init, shared); ok != [sparse.Lanes]bool{true, true, true, true} {
			t.Errorf("%s shared: lanes rejected: %v", name, ok)
		}
	}
}

// valueSources maps stored values that are bitwise equal in every lane
// to one source, in first-seen order, and returns the map and the
// sources' lane values.
func valueSources(vals [sparse.Lanes][]float64) ([]int, [sparse.Lanes][]float64) {
	var shared [sparse.Lanes][]float64
	src := make([]int, len(vals[0]))
	seen := map[[sparse.Lanes]uint64]int{}
	for q := range src {
		var key [sparse.Lanes]uint64
		for l := range vals {
			key[l] = math.Float64bits(vals[l][q])
		}
		s, ok := seen[key]
		if !ok {
			s = len(shared[0])
			seen[key] = s
			for l := range vals {
				shared[l] = append(shared[l], vals[l][q])
			}
		}
		src[q] = s
	}
	return src, shared
}
