package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/closedform"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
	"repro/internal/serve"
)

// Layer replay. Inside one sweep request the program's spans merge the
// model refill, the batched solve and the sparse kernels into one
// markov.batch span per chunk, and the JSON encode into serve.compute.
// The replay re-runs served sweeps through those layers' public
// functions with the benchmark's own timers around each call, and checks
// that the replayed values equal the served ones bit for bit.

// replayTimes accumulates the benchmark-timed layer calls.
type replayTimes struct {
	cells       int           // sweep cells batch-solved
	refills     int           // cells refilled in place (all but each configuration's first)
	refill      time.Duration // model.NIRRefiller/IRRefiller.Refill
	batchSolve  time.Duration // markov.BatchSolver.SolveCell
	sparseCells int           // cells also solved through sparse.Numeric
	refactor    time.Duration // sparse.Numeric.Refactor
	sparseSolve time.Duration // sparse.Numeric.SolveTransposeInto
	encodes     int           // sweep responses re-encoded
	encode      time.Duration // json.Marshal(serve.SweepResponse)
}

// sparseStride selects the cells that also take the sparse replay: its
// dense-to-CSR conversion costs more than the solve it times.
const sparseStride = 8

// inputs mirrors core's analysis prep: the chain inputs of one cell.
type inputs struct {
	nir closedform.NIRInputs
	ir  closedform.IRInputs
}

func cellInputs(p params.Parameters, cfg core.Config) inputs {
	k := cfg.NodeFaultTolerance
	rates := rebuild.Compute(p, k)
	if cfg.Internal == core.InternalNone {
		return inputs{nir: closedform.NIRInputs{
			N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
			LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
			MuN: rates.NodeRebuild, MuD: rates.DriveRebuild, CHER: p.CHER(),
		}}
	}
	m := cfg.Internal.ParityDrives()
	arr := closedform.ArrayInputs{D: p.DrivesPerNode, LambdaD: p.DriveFailureRate(), MuD: rates.Restripe, CHER: p.CHER()}
	return inputs{ir: closedform.IRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize, LambdaN: p.NodeFailureRate(),
		LambdaArray:  closedform.ArrayFailureRate(m, arr),
		LambdaSector: closedform.SectorErrorRate(m, arr),
		MuN:          rates.NodeRebuild,
	}}
}

// replaySweep re-runs one served exact-chain sweep, configuration by
// configuration, and compares every cell with the served response.
func (rt *replayTimes) replaySweep(s sweepSpec, resp serve.SweepResponse) error {
	set := sweepSetters[s.param]
	ctx := context.Background()
	for k, cfg := range s.cfgs {
		bs := markov.NewBatchSolver()
		var nir *model.NIRRefiller
		var ir *model.IRRefiller
		var num *sparse.Numeric
		var tau, rhs, work []float64
		for i, x := range s.values {
			p := s.p
			set(&p, x)
			in := cellInputs(p, cfg)
			var ch *markov.Chain
			t0 := time.Now()
			switch {
			case cfg.Internal == core.InternalNone && nir == nil:
				nir = model.AcquireNIRRefiller(in.nir, cfg.NodeFaultTolerance)
				ch = nir.Chain()
			case cfg.Internal == core.InternalNone:
				ch = nir.Refill(in.nir)
			case ir == nil:
				ir = model.AcquireIRRefiller(in.ir, cfg.NodeFaultTolerance)
				ch = ir.Chain()
			default:
				ch = ir.Refill(in.ir)
			}
			if i > 0 {
				rt.refill += time.Since(t0)
				rt.refills++
			}
			if i == 0 {
				if err := bs.Bind(ctx, ch); err != nil {
					return fmt.Errorf("replay bind: %w", err)
				}
				bs.Cells(1)
			}
			bs.Fill(0, ch)
			t1 := time.Now()
			mtta, err := bs.SolveCell(0)
			rt.batchSolve += time.Since(t1)
			if err != nil {
				return fmt.Errorf("replay solve: %w", err)
			}
			rt.cells++
			if got := resp.Points[i].Results[k].MTTDLHours; got != mtta {
				return fmt.Errorf("replayed %s x=%v MTTA %v, served %v", cfg, x, mtta, got)
			}

			if i%sparseStride == 0 {
				r, _, init := ch.AbsorptionMatrix()
				if r.Rows() < 48 {
					continue // below the program's sparse crossover
				}
				csr := sparse.FromDense(r)
				if num == nil {
					sym, err := sparse.Analyze(csr)
					if err != nil {
						return fmt.Errorf("replay symbolic: %w", err)
					}
					num = sparse.NewNumeric(sym)
					tau, rhs, work = make([]float64, r.Rows()), make([]float64, r.Rows()), make([]float64, r.Rows())
				}
				for j := range rhs {
					rhs[j] = 0
				}
				rhs[init] = 1
				t2 := time.Now()
				err := num.Refactor(csr)
				t3 := time.Now()
				if err != nil {
					return fmt.Errorf("replay refactor: %w", err)
				}
				num.SolveTransposeInto(tau, rhs, work)
				rt.sparseSolve += time.Since(t3)
				rt.refactor += t3.Sub(t2)
				rt.sparseCells++
				if d := relDiff(linalg.Sum(tau), mtta); d > 1e-9 {
					return fmt.Errorf("replayed sparse %s x=%v MTTA %v, batch %v", cfg, x, linalg.Sum(tau), mtta)
				}
			}
		}
		if nir != nil {
			nir.Release()
		}
		if ir != nil {
			ir.Release()
		}
	}
	return nil
}

// replayEncode re-encodes a served buffered sweep body and checks the
// bytes round-trip.
func (rt *replayTimes) replayEncode(body []byte) (serve.SweepResponse, error) {
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decode sweep: %w", err)
	}
	t0 := time.Now()
	out, err := json.Marshal(resp)
	rt.encode += time.Since(t0)
	rt.encodes++
	if err != nil {
		return resp, fmt.Errorf("re-encode sweep: %w", err)
	}
	if string(out) != string(body) {
		return resp, fmt.Errorf("re-encoded sweep differs from the served body")
	}
	return resp, nil
}
