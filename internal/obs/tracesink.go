package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// TraceSink renders the lifecycle-event stream as Chrome trace-event
// JSON (the "JSON Array Format" with a traceEvents wrapper), loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The trace clock is the emitting run's own time base, Event.T: one
// trace "microsecond" is one retired x86 instruction: every VM event
// is emitted on the functional path, where the instruction count is
// exact at the emission site.
//
// Layout: one process (pid 1); each run tag gets two lanes in
// first-seen order — a main lane carrying the run span (run-start/
// run-end as B/E), lifecycle instants (chain, unchain, cache-flush,
// shadow-evict, store-hit/miss) and the jtlb counter track, and an
// "xlate" lane carrying translation episodes (bbt-translate,
// sbt-promote) as complete "X" spans whose duration is the episode's
// x86 instruction count. Emission happens after the episode
// at one instant, so episode spans are laid back-to-back from a
// per-lane cursor when their nominal times would overlap.
//
// Concurrent runs (the experiment grid) share the sink; events
// interleave in arrival order but land on their own tag's lanes.
// Duplicate tags share lanes, so their episode spans interleave.
// Call Flush (or Close) when done: it appends the thread-name metadata
// and the closing brackets — an unflushed trace is not valid JSON.
type TraceSink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	buf    []byte
	any    bool // an event has been written (comma management)
	closed bool
	tags   []string
	lanes  map[string]*traceLanes
	err    error
}

// traceLanes is one tag's pair of lanes.
type traceLanes struct {
	main   uint64
	xlate  uint64
	cursor uint64 // next free instant on the xlate lane
}

// NewTraceSink returns a sink writing one Chrome trace to w.
func NewTraceSink(w io.Writer) *TraceSink {
	return &TraceSink{
		w:     bufio.NewWriterSize(w, 1<<16),
		buf:   make([]byte, 0, 256),
		lanes: map[string]*traceLanes{},
	}
}

// lanesFor resolves (or assigns) the tag's lanes. Called with mu held.
func (s *TraceSink) lanesFor(tag string) *traceLanes {
	if l, ok := s.lanes[tag]; ok {
		return l
	}
	n := uint64(len(s.tags))
	l := &traceLanes{main: 2*n + 1, xlate: 2*n + 2}
	s.lanes[tag] = l
	s.tags = append(s.tags, tag)
	return l
}

// head opens one trace event object through the shared fields. Returns
// the scratch buffer positioned after `"ts":<ts>`.
func (s *TraceSink) head(name string, ph byte, tid, ts uint64) []byte {
	b := s.buf[:0]
	if !s.any {
		b = append(b, `{"traceEvents":[`...)
		s.any = true
	} else {
		b = append(b, ',')
	}
	b = append(b, "\n"...)
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","pid":1,"tid":`...)
	b = strconv.AppendUint(b, tid, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	return b
}

// kv is one trace-event args field.
type kv struct {
	k string
	v uint64
}

// argsUint appends `,"args":{...}` from name/value pairs, skipping
// empty names.
func argsUint(b []byte, kvs ...kv) []byte {
	open := false
	for _, f := range kvs {
		if f.k == "" {
			continue
		}
		if !open {
			b = append(b, `,"args":{`...)
			open = true
		} else {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, f.k...)
		b = append(b, `":`...)
		b = strconv.AppendUint(b, f.v, 10)
	}
	if open {
		b = append(b, '}')
	}
	return b
}

// Emit implements Sink.
func (s *TraceSink) Emit(e Event) {
	info := &kindInfo[e.Kind]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return
	}
	l := s.lanesFor(e.Tag)
	var b []byte
	switch e.Kind {
	case EvRunStart:
		b = s.head("run", 'B', l.main, e.T)
		b = argsUint(b, kv{"budget", e.A})
	case EvRunEnd:
		b = s.head("run", 'E', l.main, e.T)
		b = argsUint(b, kv{"instrs", e.A}, kv{"cycles", e.B})
	case EvBBTTranslate, EvSBTPromote:
		// Complete span on the xlate lane: duration = the episode's
		// x86 instruction count, placed at the cursor so back-to-back
		// episodes emitted at one instant do not overlap.
		ts := e.T
		if ts < l.cursor {
			ts = l.cursor
		}
		dur := e.A
		if dur == 0 {
			dur = 1
		}
		l.cursor = ts + dur
		b = s.head(info.name, 'X', l.xlate, ts)
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, dur, 10)
		b = argsUint(b, kv{info.pc, uint64(e.PC)}, kv{info.a, e.A},
			kv{info.b, e.B}, kv{info.c, e.C})
	case EvJTLBEpoch:
		b = s.head("jtlb", 'C', l.main, e.T)
		b = argsUint(b, kv{info.a, e.A}, kv{info.b, e.B})
	default:
		// Everything else is a thread-scoped instant on the main lane
		// with the kind's self-describing payload fields as args.
		b = s.head(info.name, 'i', l.main, e.T)
		b = append(b, `,"s":"t"`...)
		b = argsUint(b, kv{info.pc, uint64(e.PC)}, kv{info.a, e.A},
			kv{info.b, e.B}, kv{info.c, e.C})
	}
	b = append(b, '}')
	_, s.err = s.w.Write(b)
	s.buf = b[:0]
}

// Flush appends the lane-name metadata and the closing brackets, then
// drains the buffered writer. The output is valid JSON only after
// Flush; events emitted afterwards corrupt the trace.
func (s *TraceSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return s.err
	}
	s.closed = true
	for _, tag := range s.tags {
		l := s.lanes[tag]
		for _, lane := range []struct {
			tid  uint64
			name string
		}{{l.main, tag}, {l.xlate, tag + " xlate"}} {
			b := s.head("thread_name", 'M', lane.tid, 0)
			b = append(b, `,"args":{"name":`...)
			b = strconv.AppendQuote(b, lane.name)
			b = append(b, `}}`...)
			if _, s.err = s.w.Write(b); s.err != nil {
				return s.err
			}
			s.buf = b[:0]
		}
	}
	if !s.any {
		if _, s.err = s.w.WriteString(`{"traceEvents":[`); s.err != nil {
			return s.err
		}
	}
	if _, s.err = s.w.WriteString("\n]}\n"); s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}
