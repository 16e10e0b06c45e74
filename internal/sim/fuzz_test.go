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
