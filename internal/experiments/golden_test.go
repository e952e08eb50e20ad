package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// figureHarnesses renders all six paper figures at the detOpt scale,
// plus the extension reports with report-shaped output: the FX!32
// persistent-startup table (byte-stable since Cache.Save started
// emitting translations in sorted EntryPC order) and the warm-start
// startup figure.
var figureHarnesses = []struct {
	name string
	run  func(Options) (string, error)
}{
	{"fig2", func(o Options) (string, error) {
		r, err := Fig2(o)
		if err != nil {
			return "", err
		}
		return FormatStartup(r, "fig2"), nil
	}},
	{"fig3", func(o Options) (string, error) {
		r, err := Fig3(o)
		if err != nil {
			return "", err
		}
		return FormatFig3(r), nil
	}},
	{"fig8", func(o Options) (string, error) {
		r, err := Fig8(o)
		if err != nil {
			return "", err
		}
		return FormatStartup(r, "fig8"), nil
	}},
	{"fig9", func(o Options) (string, error) {
		r, err := Fig9(o)
		if err != nil {
			return "", err
		}
		return FormatFig9(r), nil
	}},
	{"fig10", func(o Options) (string, error) {
		r, err := Fig10(o)
		if err != nil {
			return "", err
		}
		return FormatFig10(r), nil
	}},
	{"fig11", func(o Options) (string, error) {
		r, err := Fig11(o)
		if err != nil {
			return "", err
		}
		return FormatFig11(r), nil
	}},
	{"persist", func(o Options) (string, error) {
		r, err := PersistentStartup(o)
		if err != nil {
			return "", err
		}
		return FormatPersist(r), nil
	}},
	{"warmstart", func(o Options) (string, error) {
		r, err := WarmStartFig(o)
		if err != nil {
			return "", err
		}
		return FormatWarmStart(r), nil
	}},
}

// checkGolden diffs one rendered report against its committed bytes
// under testdata/golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s report differs from testdata/golden/%s.txt\n--- want ---\n%s--- got ---\n%s",
			name, name, want, got)
	}
}

// TestGoldenReports is the standing determinism contract: every
// figure report at detOpt, the phases report, and the warm-start report
// rebuilt from cleared in-process caches must match the committed bytes
// under testdata/golden exactly. FreshRuns keeps every harness actually
// simulating; scripts/ci.sh runs this under -race. A change that alters
// a report on purpose regenerates the file and says so.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, h := range figureHarnesses {
		t.Run(h.name, func(t *testing.T) {
			got, err := h.run(detOpt())
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, h.name, got)
		})
	}

	// The phases report attributes every cycle; its profiler state
	// rides the whole timing path.
	t.Run("phases", func(t *testing.T) {
		resetSnapCacheForTest()
		resetRunCacheForTest()
		o := detOpt()
		o.Apps = []string{"Word", "Winzip"}
		r, err := PhasesFig(o)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "phases", FormatPhases(r))
	})

	// Warm start one level deeper than its harness above: with the
	// caches cleared, the snapshot itself is rebuilt (cold producer run
	// → Cache.Save → ParseSnapshot) before the arms restore from it, so
	// the snapshot bytes are pinned too.
	t.Run("warmstart-rebuild", func(t *testing.T) {
		resetSnapCacheForTest()
		resetRunCacheForTest()
		r, err := WarmStartFig(detOpt())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "warmstart", FormatWarmStart(r))
	})
}

// TestGoldenReportsSequential pins the same committed bytes with the
// (app × model) grid run one task at a time, so the golden files hold
// for both grid schedules, not only for whichever one TestGoldenReports
// happens to take on the host's CPU count.
func TestGoldenReportsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, h := range figureHarnesses {
		t.Run(h.name, func(t *testing.T) {
			o := detOpt()
			o.Sequential = true
			got, err := h.run(o)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, h.name, got)
		})
	}
}
