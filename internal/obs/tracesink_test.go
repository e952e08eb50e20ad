package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// traceEvent is the decoded shape of one Chrome trace event.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur"`
	S    string            `json:"s"`
	Args map[string]any    `json:"args"`
	X    map[string]string `json:"-"`
}

// decodeTrace parses a flushed sink's output and fails the test if it
// is not exactly the Chrome JSON-object format.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

func TestTraceSinkEmptyFlushIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if evs := decodeTrace(t, &buf); len(evs) != 0 {
		t.Fatalf("empty trace has %d events", len(evs))
	}
}

func TestTraceSinkShapes(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	o := NewObserver(s)
	r := o.NewRun("VM.soft/Word")
	r.EmitAt(EvRunStart, 0, 0, 1000, 0, 0)
	r.EmitAt(EvBBTTranslate, 0x1000, 10, 5, 9, 34)
	// Second episode emitted at the same instant: must be laid
	// back-to-back after the first, not overlapping.
	r.EmitAt(EvBBTTranslate, 0x2000, 10, 7, 12, 50)
	r.EmitAt(EvSBTPromote, 0x1000, 40, 20, 35, 120)
	r.EmitAt(EvChain, 0x2000, 60, 0x1000, 0x2000, 0)
	r.EmitAt(EvJTLBEpoch, 0, 80, 900, 100, 0)
	r.EmitAt(EvRunEnd, 0, 100, 100, 250, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, &buf)

	byPhase := map[string][]traceEvent{}
	for _, e := range evs {
		byPhase[e.Ph] = append(byPhase[e.Ph], e)
	}
	if len(byPhase["B"]) != 1 || len(byPhase["E"]) != 1 {
		t.Fatalf("want one B/E run span, got %d/%d", len(byPhase["B"]), len(byPhase["E"]))
	}
	if b := byPhase["B"][0]; b.Name != "run" || b.Ts != 0 || b.Args["budget"] != float64(1000) {
		t.Fatalf("run-start span wrong: %+v", b)
	}
	xs := byPhase["X"]
	if len(xs) != 3 {
		t.Fatalf("want 3 translation spans, got %d", len(xs))
	}
	// Same-instant episodes laid back-to-back from the lane cursor.
	if xs[0].Ts != 10 || xs[0].Dur != 5 {
		t.Fatalf("first episode at %d+%d, want 10+5", xs[0].Ts, xs[0].Dur)
	}
	if xs[1].Ts != 15 || xs[1].Dur != 7 {
		t.Fatalf("second same-instant episode at %d+%d, want 15+7", xs[1].Ts, xs[1].Dur)
	}
	if xs[2].Name != "sbt-promote" || xs[2].Ts != 40 {
		t.Fatalf("promotion span wrong: %+v", xs[2])
	}
	if xs[0].Tid == byPhase["B"][0].Tid {
		t.Fatal("translation episodes share the main lane")
	}
	if len(byPhase["C"]) != 1 || byPhase["C"][0].Name != "jtlb" {
		t.Fatalf("jtlb counter track wrong: %+v", byPhase["C"])
	}
	if len(byPhase["i"]) != 1 || byPhase["i"][0].Name != "chain" || byPhase["i"][0].S != "t" {
		t.Fatalf("instant event wrong: %+v", byPhase["i"])
	}
	// Lane metadata names both lanes after the tag.
	names := map[uint64]string{}
	for _, e := range byPhase["M"] {
		names[e.Tid] = e.Args["name"].(string)
	}
	if names[byPhase["B"][0].Tid] != "VM.soft/Word" || names[xs[0].Tid] != "VM.soft/Word xlate" {
		t.Fatalf("lane names wrong: %v", names)
	}
}

// TestTraceSinkClosedIsInert: emitting after Flush must not corrupt the
// already-valid output, and a second Flush is a no-op.
func TestTraceSinkClosedIsInert(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	o := NewObserver(s)
	r := o.NewRun("m/a")
	r.EmitAt(EvRunStart, 0, 0, 10, 0, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := buf.String()
	r.EmitAt(EvRunEnd, 0, 9, 9, 12, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != before {
		t.Fatal("post-Flush emission changed the output")
	}
	decodeTrace(t, &buf)
}

// TestTraceSinkConcurrentTags: two runs sharing the sink keep their own
// lane pairs.
func TestTraceSinkConcurrentTags(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	o := NewObserver(s)
	a, b := o.NewRun("m/a"), o.NewRun("m/b")
	a.EmitAt(EvRunStart, 0, 0, 10, 0, 0)
	b.EmitAt(EvRunStart, 0, 0, 10, 0, 0)
	a.EmitAt(EvBBTTranslate, 0x1, 1, 2, 3, 4)
	b.EmitAt(EvBBTTranslate, 0x2, 1, 2, 3, 4)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tids := map[uint64]bool{}
	for _, e := range decodeTrace(t, &buf) {
		if e.Ph != "M" {
			tids[e.Tid] = true
		}
	}
	if len(tids) != 4 {
		t.Fatalf("want 4 distinct lanes (2 runs × main+xlate), got %v", tids)
	}
}
