package sim

// FuzzEventSchedule locksteps the calendar queue and the heap oracle
// against a naive sorted-slice model under adversarial schedule/pop
// interleavings. Any
// lost, duplicated, or reordered event — including same-time ties and
// stale-seq reschedules (lazy cancellation) — shows up as a three-way
// mismatch. The fuzzer is free to schedule in the past and to pile many
// events onto one timestamp, both of which the DES itself never does.

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// modelQueue is the obviously-correct reference: a slice popped by
// linear-scan minimum under event.less.
type modelQueue []event

func (m *modelQueue) schedule(e event) { *m = append(*m, e) }

func (m *modelQueue) next() event {
	best := 0
	for i := 1; i < len(*m); i++ {
		if (*m)[i].less((*m)[best]) {
			best = i
		}
	}
	e := (*m)[best]
	*m = append((*m)[:best], (*m)[best+1:]...)
	return e
}

func FuzzEventSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// A burst of same-time schedules followed by pops: the tie-break
	// gauntlet.
	tie := make([]byte, 0, 64)
	for i := 0; i < 10; i++ {
		tie = append(tie, 0x00, 0x10, 0x00, byte(i), byte(i%3))
	}
	for i := 0; i < 10; i++ {
		tie = append(tie, 0xff)
	}
	f.Add(tie)
	// Interleaved schedule/pop with spread-out times (year wraps).
	mix := make([]byte, 0, 128)
	for i := 0; i < 20; i++ {
		mix = append(mix, 0x00, byte(i*13), byte(i*7), byte(i), 0x01, 0xff)
	}
	f.Add(mix)

	f.Fuzz(func(t *testing.T, data []byte) {
		heapQ := newHeapQueue()
		calQ := newCalendarScheduler()
		var model modelQueue
		var opSeq uint64

		pos := 0
		nextByte := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}

		for steps := 0; steps < 4096; steps++ {
			op, ok := nextByte()
			if !ok {
				break
			}
			if op >= 0x80 && len(model) > 0 {
				// Pop: all three must agree exactly.
				want := model.next()
				if got := heapQ.next(); got != want {
					t.Fatalf("heap popped %+v, model %+v", got, want)
				}
				if got := calQ.next(); got != want {
					t.Fatalf("calendar popped %+v, model %+v", got, want)
				}
				continue
			}
			// Schedule: decode a time (two bytes, quantized so equal times
			// are common), a kind, a node, and a seq. Reusing a (kind,
			// node, seq) triple models a stale reschedule — the engines
			// must carry both copies and pop them adjacently by seq.
			var raw [4]byte
			for i := range raw {
				raw[i], _ = nextByte()
			}
			at := float64(binary.LittleEndian.Uint16(raw[:2])) / 8.0
			kind := eventKind(1 + int(raw[2])%int(numEventKinds-1))
			e := event{
				at:   at,
				kind: kind,
				node: int(raw[3]) % 8,
				seq:  opSeq % 4, // few distinct seqs → frequent full ties
			}
			opSeq++
			// Full duplicates would make pop order genuinely ambiguous
			// (identical events are interchangeable); skip exact dupes the
			// way the DES's strict-order invariant guarantees it never
			// creates them.
			dup := false
			for _, m := range model {
				if m == e {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			model.schedule(e)
			heapQ.schedule(e)
			calQ.schedule(e)
		}

		// Drain: every remaining event must come out of both engines in
		// exactly sorted order — nothing lost, nothing duplicated.
		sort.Slice(model, func(i, j int) bool { return model[i].less(model[j]) })
		if heapQ.Len() != len(model) || calQ.Len() != len(model) {
			t.Fatalf("lengths: heap %d, calendar %d, model %d", heapQ.Len(), calQ.Len(), len(model))
		}
		for i, want := range model {
			if got := heapQ.next(); got != want {
				t.Fatalf("drain %d: heap %+v, want %+v", i, got, want)
			}
			if got := calQ.next(); got != want {
				t.Fatalf("drain %d: calendar %+v, want %+v", i, got, want)
			}
		}
	})
}

// FuzzHealthyPick drives the O(1) first-failure pick of a healthy node
// set against the sequential walk over fuzzer-chosen geometries, rates
// and draws. edge == 0 draws u = frac(x)·rate; otherwise u sits ulps
// away from interval edge edge-1 (mod the edge count), the band where
// the two picks could disagree. Wherever the fast pick accepts, it must
// equal the walk.
func FuzzHealthyPick(f *testing.F) {
	// Baseline 64×12 set, a random-looking draw and the largest draw.
	f.Add(uint8(61), uint8(11), 1e-5, 2e-6, 0.0, 0.5, uint16(0), int8(0))
	f.Add(uint8(61), uint8(11), 1e-5, 2e-6, 0.0, math.Nextafter(1, 0), uint16(0), int8(0))
	// On an edge, ±1 and ±40 ulps off it, with and without shocks.
	f.Add(uint8(61), uint8(11), 1e-5, 2e-6, 0.0, 0.0, uint16(400), int8(0))
	f.Add(uint8(61), uint8(11), 1e-5, 2e-6, 1e-4, 0.0, uint16(13), int8(1))
	f.Add(uint8(0), uint8(0), 3e-2, 7e-9, 0.0, 0.0, uint16(2), int8(-1))
	f.Add(uint8(252), uint8(23), 1e-12, 1e-8, 1e3, 0.0, uint16(6375), int8(40))
	f.Add(uint8(5), uint8(3), 1.0, 1.0, 0.0, 0.0, uint16(33), int8(-40))

	f.Fuzz(func(t *testing.T, n, d uint8, lambdaN, lambdaD, shock, x float64, edge uint16, ulps int8) {
		sc := Scenario{N: 3 + int(n)%253, D: 1 + int(d)%24,
			LambdaN: math.Abs(lambdaN), LambdaD: math.Abs(lambdaD), ShockRate: math.Abs(shock)}
		if !(sc.LambdaN > 0 && sc.LambdaD > 0) || math.IsInf(sc.LambdaN+sc.LambdaD, 0) ||
			math.IsNaN(sc.ShockRate) || math.IsInf(sc.ShockRate, 0) {
			t.Skip()
		}
		b := healthySet(sc)
		rate := b.rate()
		if !(rate > 0) || math.IsInf(rate, 0) {
			t.Skip()
		}
		var u float64
		if edge == 0 {
			if x = math.Abs(x); math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
			u = (x - math.Floor(x)) * rate
			if u < sc.ShockRate {
				t.Skip() // a shock: no component is picked
			}
			u -= sc.ShockRate
		} else {
			e := pickEdge(&sc, int(edge-1)%(sc.N*(1+sc.D)+1))
			u = math.Float64frombits(uint64(int64(math.Float64bits(e)) + int64(ulps)))
			if e == 0 && ulps < 0 {
				t.Skip()
			}
		}
		checkHealthyPick(t, b, rate, u)
	})
}
