package main

import (
	"testing"
)

func TestRecordLogRoundTrip(t *testing.T) {
	l, err := newRecordLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	want := []record{
		{seq: -3, status: 200, lat: 1.5e-5, firstRow: 1e-5, done: 0.25, size: 812, hash: 1<<63 + 5, off: -1, ndjson: true},
		{seq: 7, status: 422, lat: 0.75, done: 10.5, size: 3, hash: 9, off: 1 << 40},
	}
	for _, r := range want {
		if err := l.add(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.all()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSlicesHoldWholePairs(t *testing.T) {
	// 26 alternating requests, one a second: fast (0.5 s) and slow (1.5 s),
	// except a disturbed stretch where every request takes twice as long.
	var recs []record
	for i := 0; i < 26; i++ {
		lat := 0.5 + float64(i%2)
		if i >= 10 && i < 16 {
			lat *= 2
		}
		recs = append(recs, record{seq: i, lat: lat, done: float64(i + 1)})
	}
	w := &workload{pair: 2, sliceMin: 2}
	var sizes []int
	meds := perSlice(recs, w, func(s []record, _ float64) float64 {
		sizes = append(sizes, len(s))
		return percentile(latencies(s), 50)
	})
	for _, n := range sizes {
		if n != 2 {
			t.Fatalf("slice sizes %v, want 13 pairs", sizes)
		}
	}
	// Each undisturbed pair's median is 1 s and the three disturbed pairs'
	// 2 s, so both the median and the quiet quartile over slices read 1.
	if m, q := percentile(meds, 50), percentile(meds, 25); m != 1 || q != 1 {
		t.Errorf("p50 over slices: median %v, quiet quartile %v; want 1", m, q)
	}
	if r := percentile(perSlice(recs, w, rate), 75); r != 1 {
		t.Errorf("quiet rate = %v, want 1 request a second", r)
	}
	whole := perSlice(recs[:6], w, func(s []record, _ float64) float64 { return float64(len(s)) })
	if len(whole) != 1 || whole[0] != 6 {
		t.Errorf("a window of three pairs is measured whole, got slices of %v", whole)
	}
}

func TestSpoolKeepsOneBodyPerReusedRequest(t *testing.T) {
	sp, err := newSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	reused := job{ident: 4}
	h1, off1, _ := sp.put(reused, []byte("first"))
	h2, off2, _ := sp.put(reused, []byte("first"))
	_, off3, _ := sp.put(job{ident: 4, ndjson: true}, []byte("streamed"))
	_, off4, _ := sp.put(job{ident: -1}, []byte("unique"))
	if err := sp.flush(); err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || off1 < 0 || off2 != -off1-1 || off3 < 0 || off4 < 0 {
		t.Fatalf("hashes %x %x, offsets %d %d %d %d", h1, h2, off1, off2, off3, off4)
	}
	for off, want := range map[int64]string{off2: "first", off3: "streamed", off4: "unique"} {
		if b, err := sp.get(off); err != nil || string(b) != want {
			t.Errorf("get(%d) = %q, %v; want %q", off, b, err, want)
		}
	}
	if off, ok := sp.firstOf(job{ident: 4, ndjson: true}, false); !ok || off != off1 {
		t.Errorf("buffered counterpart at %d, %v; want %d", off, ok, off1)
	}
}
