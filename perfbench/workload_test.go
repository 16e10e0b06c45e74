package main

import (
	"bytes"
	"testing"
)

// sequence renders the first n requests of a workload's stream, warm-up
// jobs first, as the bytes a server would receive.
func sequence(w *workload, seed int64, n int) []byte {
	var b bytes.Buffer
	emit := func(j job) {
		b.WriteString(j.path)
		if j.ndjson {
			b.WriteString(" ndjson")
		}
		b.WriteByte(' ')
		b.Write(j.body)
		b.WriteByte('\n')
	}
	for _, j := range w.warm(seed) {
		emit(j)
	}
	next := w.next(seed)
	for i := 0; i < n; i++ {
		emit(next())
	}
	return b.Bytes()
}

func TestRequestSequenceIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(w, 7, 600), sequence(w, 7, 600)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different request sequences", w.name)
		}
		if bytes.Equal(a, sequence(w, 8, 600)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
		}
	}
}

func TestServeMixClassFractions(t *testing.T) {
	next := mixStream(3)
	counts := map[string]int{}
	const n = 8000
	for i := 0; i < n; i++ {
		counts[next().class]++
	}
	// Every 80 requests hold exactly 68 analyze, 8 sweeps, 2 plans and
	// 2 fleet simulations.
	want := map[string]int{"analyze-closed-form": 3400, "analyze-exact-chain": 3400,
		"sweep": 400, "sweep-ndjson": 400, "plan": 200, "fleet": 200}
	for class, w := range want {
		if counts[class] != w {
			t.Errorf("%s: %d of %d requests, want %d", class, counts[class], n, w)
		}
	}
}

func TestColdStreamsNeverRepeatWithinCache(t *testing.T) {
	for _, name := range []string{"sweep-deep", "plan-stock"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		next := w.next(1)
		last := map[string]int{}
		for i := 0; i < 3*coldCycle; i++ {
			j := next()
			if prev, ok := last[string(j.body)]; ok && i-prev <= 256 {
				t.Fatalf("%s: request %d repeats request %d, within the 256-entry cache", name, i, prev)
			}
			last[string(j.body)] = i
		}
	}
}
