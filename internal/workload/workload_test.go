package workload

import (
	"bytes"
	"testing"

	"codesignvm/internal/interp"
	"codesignvm/internal/x86"
)

func TestGenerateAllApps(t *testing.T) {
	for _, p := range Apps {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, err := Generate(p, 25)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			target := p.StaticInstrs / 25
			if prog.StaticInstrs < target*3/4 || prog.StaticInstrs > target*5/4 {
				t.Errorf("static instrs %d not within 25%% of target %d", prog.StaticInstrs, target)
			}
			if prog.HotInstrs == 0 || prog.InitInstrs == 0 || prog.WarmInstrs == 0 {
				t.Errorf("tier breakdown empty: hot=%d init=%d warm=%d",
					prog.HotInstrs, prog.InitInstrs, prog.WarmInstrs)
			}
			hotFrac := float64(prog.HotInstrs) / float64(prog.StaticInstrs)
			if hotFrac > 3*p.HotFrac {
				t.Errorf("hot fraction %.3f far above configured %.3f", hotFrac, p.HotFrac)
			}
			if prog.NumKernels < 3 {
				t.Errorf("kernels = %d", prog.NumKernels)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := App("Word", 25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := App("Word", 25)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Code, b.Code) {
		t.Fatal("generation is not deterministic")
	}
	c, err := App("Excel", 25)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Code, c.Code) {
		t.Fatal("different apps should differ")
	}
}

// TestProgramsExecute runs each generated app on the interpreter for a
// while: no decode errors, no divide faults, no early halt, and the
// execution must touch all three code tiers.
func TestProgramsExecute(t *testing.T) {
	for _, name := range []string{"Word", "Project", "Winzip"} {
		name := name
		t.Run(name, func(t *testing.T) {
			prog, err := App(name, 25)
			if err != nil {
				t.Fatal(err)
			}
			mem := prog.Memory()
			st := prog.InitState()
			m := interp.New(st, mem)
			const n = 300_000
			ran, err := m.Run(n)
			if err != nil {
				t.Fatalf("after %d instrs at eip=%#x: %v", ran, st.EIP, err)
			}
			if m.Halted {
				t.Fatalf("program halted after only %d instructions", ran)
			}
			if ran != n {
				t.Fatalf("ran %d of %d", ran, n)
			}
			// The interpreter's decode cache lives as long as no store
			// hits a page it decoded from.
			if g := mem.CodeGen(); g != 0 {
				t.Fatalf("program stored into its own code (code generation %d)", g)
			}
		})
	}
}

// TestExecutionFrequencyShape verifies the Fig. 3 premise on a generated
// program: most static instructions execute few times, and only a small
// fraction of static instructions exceeds the hot threshold within a
// fixed-length trace.
func TestExecutionFrequencyShape(t *testing.T) {
	prog, err := App("Word", 50)
	if err != nil {
		t.Fatal(err)
	}
	mem := prog.Memory()
	st := prog.InitState()
	m := interp.New(st, mem)

	counts := make(map[uint32]uint64)
	const n = 2_000_000
	for i := 0; i < n; i++ {
		counts[st.EIP]++
		if _, err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if m.Halted {
			t.Fatal("halted early")
		}
	}

	static := len(counts)
	hot := 0
	low := 0
	for _, c := range counts {
		if c >= 8000 {
			hot++
		}
		if c <= 10 {
			low++
		}
	}
	hotFrac := float64(hot) / float64(static)
	lowFrac := float64(low) / float64(static)
	t.Logf("static=%d hot(≥8000)=%.1f%% low(≤10)=%.1f%%", static, hotFrac*100, lowFrac*100)
	if hotFrac > 0.25 {
		t.Errorf("hot static fraction %.2f too high for a Fig. 3-like profile", hotFrac)
	}
	if lowFrac < 0.30 {
		t.Errorf("cold static fraction %.2f too low (want a large once-touched region)", lowFrac)
	}
	// Dynamic mass must be dominated by frequently executed instructions.
	var hotDyn, totDyn uint64
	for _, c := range counts {
		totDyn += c
		if c >= 1000 {
			hotDyn += c
		}
	}
	if frac := float64(hotDyn) / float64(totDyn); frac < 0.5 {
		t.Errorf("dynamic mass from ≥1000-count instructions = %.2f, want ≥ 0.5", frac)
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("NotAnApp"); err == nil {
		t.Fatal("expected error")
	}
	names := Names()
	if len(names) != 10 {
		t.Fatalf("suite has %d apps, want 10", len(names))
	}
}

func TestMemoryLayout(t *testing.T) {
	prog, err := App("Norton", 25)
	if err != nil {
		t.Fatal(err)
	}
	mem := prog.Memory()
	// Code present at the base.
	if mem.Read8(CodeBase) == 0 && mem.Read8(CodeBase+1) == 0 {
		t.Error("code not loaded")
	}
	// Data region initialized.
	zero := 0
	for i := uint32(0); i < 1024; i += 4 {
		if mem.Read32(DataBase+i) == 0 {
			zero++
		}
	}
	if zero > 30 {
		t.Errorf("data region looks uninitialized (%d zero words)", zero)
	}
	st := prog.InitState()
	if st.EIP != prog.Entry || st.R[x86.ESP] != StackTop {
		t.Errorf("bad init state: %+v", st)
	}
}

func TestBootLikeWorkload(t *testing.T) {
	prog, err := Generate(BootLike, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Boot-like: initialization dominates the static footprint.
	initFrac := float64(prog.InitInstrs) / float64(prog.StaticInstrs)
	if initFrac < 0.7 {
		t.Errorf("init fraction %.2f, want ≥ 0.7 for the boot-like profile", initFrac)
	}
	hotFrac := float64(prog.HotInstrs) / float64(prog.StaticInstrs)
	if hotFrac > 0.05 {
		t.Errorf("hot fraction %.2f too large for boot-like code", hotFrac)
	}
	// It must execute.
	mem := prog.Memory()
	st := prog.InitState()
	m := interp.New(st, mem)
	if _, err := m.Run(200_000); err != nil {
		t.Fatalf("boot-like program faulted: %v", err)
	}
	if m.Halted {
		t.Fatal("halted too early")
	}
	// And be reachable by name.
	p, err := ByName("BootLike")
	if err != nil || p.Name != "BootLike" {
		t.Errorf("ByName(BootLike): %v %v", p, err)
	}
}

func TestScaleOneFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("large generation")
	}
	// Paper-sized generation must work and hit the configured footprint.
	prog, err := App("Winzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ByName("Winzip")
	if prog.StaticInstrs < p.StaticInstrs*3/4 || prog.StaticInstrs > p.StaticInstrs*5/4 {
		t.Errorf("scale-1 footprint %d vs target %d", prog.StaticInstrs, p.StaticInstrs)
	}
	if len(prog.Code) < prog.StaticInstrs*2 {
		t.Errorf("code image suspiciously small: %d bytes for %d instrs",
			len(prog.Code), prog.StaticInstrs)
	}
}
