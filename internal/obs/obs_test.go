package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a", "things")
	c2 := r.Counter("a", "things")
	if c1 != c2 {
		t.Fatal("re-registering a counter returned a different handle")
	}
	h1 := r.Histogram("h", "x", []uint64{1, 2})
	h2 := r.Histogram("h", "x", []uint64{8, 16}) // layout of the first wins
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("a", "things")
}

// TestRegistryConcurrentRegistration: goroutines registering the same
// names while another snapshots must all get one handle per name and
// never a half-built entry (the experiment grid's runs share a process
// registry). Run under -race.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const n = 8
	counters := make([]*Counter, n)
	hists := make([]*Histogram, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counters[i] = r.Counter("runs.started", "runs")
			counters[i].Inc()
			hists[i] = r.Histogram("lat", "ns", []uint64{1, 10})
			r.Gauge("depth", "jobs").Set(1)
			r.Snapshot()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if counters[i] != counters[0] || hists[i] != hists[0] {
			t.Fatal("concurrent registration returned different handles for one name")
		}
	}
	if got := counters[0].Value(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
}

func TestSnapshotValuesAndOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last", "n").Add(7)
	r.Gauge("a.first", "ratio").Set(0.5)
	h := r.Histogram("m.hist", "bytes", BucketsPow2(2, 3)) // 2, 4, 8, +inf
	for _, v := range []uint64{1, 2, 3, 9, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s) != 3 || s[0].Name != "z.last" || s[1].Name != "a.first" || s[2].Name != "m.hist" {
		t.Fatalf("snapshot order/len wrong: %+v", s)
	}
	if m, _ := s.Get("z.last"); m.Value != 7 {
		t.Fatalf("counter value = %v, want 7", m.Value)
	}
	m, ok := s.Get("m.hist")
	if !ok || m.Count != 5 || m.Value != 115 {
		t.Fatalf("histogram count/sum = %d/%v, want 5/115", m.Count, m.Value)
	}
	want := []Bucket{{2, 2}, {4, 1}, {8, 0}, {InfBound, 2}}
	for i, b := range m.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestMerge(t *testing.T) {
	mk := func(cv, gv float64) Snapshot {
		r := NewRegistry()
		r.Counter("c", "n").Add(uint64(cv))
		r.Gauge("g", "x").Set(gv)
		r.Histogram("h", "n", []uint64{4}).Observe(uint64(cv))
		return r.Snapshot()
	}
	m := Merge(mk(3, 1.5), mk(5, 0.5))
	if c, _ := m.Get("c"); c.Value != 8 {
		t.Fatalf("merged counter = %v, want 8", c.Value)
	}
	if g, _ := m.Get("g"); g.Value != 1.5 {
		t.Fatalf("merged gauge = %v, want max 1.5", g.Value)
	}
	h, _ := m.Get("h")
	if h.Count != 2 || h.Buckets[0].Count != 1 || h.Buckets[1].Count != 1 {
		t.Fatalf("merged histogram wrong: %+v", h)
	}
}

func TestJSONLSinkShape(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := NewObserver(sink)
	rec := o.NewRun("VM.soft/Word")
	rec.Emit(EvBBTTranslate, 0x401000, 9, 17, 58)
	o.Emit(EvStoreHit, "VM.soft/Word", 0, 0, 0, 0)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v\n%s", err, lines[0])
	}
	for k, want := range map[string]float64{"seq": 1, "pc": 0x401000, "x86": 9, "uops": 17, "bytes": 58} {
		if first[k] != want {
			t.Fatalf("field %q = %v, want %v (%s)", k, first[k], want, lines[0])
		}
	}
	if first["ev"] != "bbt-translate" || first["tag"] != "VM.soft/Word" {
		t.Fatalf("ev/tag wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"ev":"store-hit"`) || !strings.Contains(lines[1], `"seq":2`) {
		t.Fatalf("second line wrong: %s", lines[1])
	}
}

func TestCollectSinkAndAggregate(t *testing.T) {
	sink := NewCollectSink()
	o := NewObserver(sink)
	r1 := o.NewRun("a")
	r2 := o.NewRun("b")
	r1.Reg.Counter("c", "n").Add(2)
	r2.Reg.Counter("c", "n").Add(3)
	r1.Emit(EvRunStart, 0, 100, 0, 0)
	r2.Emit(EvRunEnd, 0, 100, 200, 0)
	if got := o.RunCount(); got != 2 {
		t.Fatalf("RunCount = %d, want 2", got)
	}
	if agg := o.Aggregate(); len(agg) != 1 || agg[0].Value != 5 {
		t.Fatalf("aggregate = %+v, want one counter of 5", agg)
	}
	evs := sink.Events()
	if len(evs) != 2 || evs[0].Kind != EvRunStart || evs[0].Tag != "a" || evs[1].Tag != "b" {
		t.Fatalf("collected events wrong: %+v", evs)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("sequence not increasing: %d then %d", evs[0].Seq, evs[1].Seq)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Enabled() || o.RunCount() != 0 || o.Aggregate() != nil || o.EventsEmitted() != 0 {
		t.Fatal("nil observer accessors not inert")
	}
	o.Emit(EvStoreHit, "x", 0, 0, 0, 0) // must not panic
	rec := o.NewRun("x")
	if rec != nil {
		t.Fatal("nil observer minted a recorder")
	}
	rec.Emit(EvRunStart, 0, 0, 0, 0) // must not panic
	if rec.Tag() != "" {
		t.Fatal("nil recorder tag not empty")
	}
}

// TestHotPathAllocFree pins the zero-allocation contract of every
// operation that can run on the simulator's hot paths.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "n")
	h := r.Histogram("h", "n", BucketsPow2(1, 8))
	var nilRec *Recorder
	sink := NewJSONLSink(&discard{})
	o := NewObserver(sink)
	rec := o.NewRun("t")
	rec.Emit(EvBBTTranslate, 1, 2, 3, 4) // warm the sink's scratch buffer
	for name, fn := range map[string]func(){
		"counter-inc":       func() { c.Inc() },
		"histogram-observe": func() { h.Observe(37) },
		"nil-recorder-emit": func() { nilRec.Emit(EvBBTTranslate, 1, 2, 3, 4) },
		"jsonl-emit":        func() { rec.Emit(EvBBTTranslate, 1, 2, 3, 4) },
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// discard is a no-op writer (io.Discard would be fine, but a local type
// keeps the write path visible to the allocation accounting).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c", "n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkJSONLEmit(b *testing.B) {
	rec := NewRecorder("bench", NewJSONLSink(&discard{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Emit(EvBBTTranslate, 0x401000, 9, 17, 58)
	}
}
