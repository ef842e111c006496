// Package cmd_test pins the exit-code contract cliutil.Fatal documents
// for the four commands: 0 = the run held, 1 = the run failed, 2 = bad
// invocation. It builds the real binaries and runs them.
package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestCommandExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs four binaries")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./dtpsim", "./dtpd", "./dtpexp", "./dtptrace")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	trace := filepath.Join(dir, "trace.jsonl")
	dtpdTrace := filepath.Join(dir, "dtpd-trace.jsonl")
	dtpdMetrics := [2]string{filepath.Join(dir, "dtpd-a.prom"), filepath.Join(dir, "dtpd-b.prom")}
	prof := filepath.Join(dir, "prof")
	liar := []string{"-topo", "tree", "-duration", "160ms", "-chaos", "../examples/chaos/liar.json"}
	// Durations past sim.Time's ~106 days used to wrap negative and panic
	// the run: a fault's start, its end, and a grid's sampling cadence.
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	farAt := write("far-at.json", `{"name": "far", "faults": [{"kind": "crash", "device": "h1", "at": "3000h", "duration": "1ms"}]}`)
	farEnd := write("far-end.json", `{"name": "far", "faults": [{"kind": "crash", "device": "h1", "at": "2000h", "duration": "2000h"}]}`)
	farGrid := write("far-grid.json", `{"sample_period": "3000h", "durations": ["1ms"]}`)
	// Typos and run-level errors in grids and scenarios used to run
	// (defaults, a permanent fault, an error row per point).
	typoGrid := write("typo-grid.json", `{"topo": ["chain:3"], "seed": [5, 6], "durations": ["2ms"]}`)
	typoFault := write("typo-fault.json", `{"name": "typo", "faults": [{"kind": "freq_step", "device": "h0",
		"at": "1ms", "ppm_step": 20, "durration": "2ms"}]}`)
	moebius := write("moebius.json", `{"topos": ["moebius:4"]}`)
	noScenario := write("no-scenario.json", `{"chaos": ["/nonexistent.json"]}`)
	liars := write("liars.json", `{"topos": ["pair"], "liars": [3]}`)
	smoke := "../examples/campaign/smoke.json"

	// In order: each dtptrace step reads what a -trace-out step wrote,
	// and the second dtpd metrics run compares its file with the first's.
	for _, tc := range []struct {
		name   string
		argv   []string
		code   int
		stderr string // substring required on stderr
		stdout func(t *testing.T, out string)
	}{
		{"clean run", []string{"dtpsim", "-topo", "pair", "-duration", "1ms"}, 0, "", nil},
		{"unknown topology", []string{"dtpsim", "-topo", "nope"}, 2, "unknown topology", nil},
		// -watch 0 used to spin forever; an unknown load used to run an
		// idle network and exit 0 in single mode.
		{"zero watch interval", []string{"dtpsim", "-watch", "0"}, 2, "-watch must be positive", nil},
		{"unknown load", []string{"dtpsim", "-load", "bogus"}, 2, "unknown load", nil},
		{"liar, plain mode", append([]string{"dtpsim"}, liar...), 1, "", nil},
		{"liar, hardened", append([]string{"dtpsim", "-hardened"}, liar...), 0, "", nil},
		{"trace out", []string{"dtpsim", "-topo", "pair", "-duration", "1ms", "-trace-out", trace}, 0, "", nil},
		{"trace in", []string{"dtptrace", "-trace", trace, "-topo", "pair"}, 0, "", nil},
		{"dtptrace without input", []string{"dtptrace"}, 2, "-trace or -bundle is required", nil},
		{"dtptrace missing file", []string{"dtptrace", "-trace", filepath.Join(dir, "absent")}, 1, "", nil},
		{"dtpd run", []string{"dtpd", "-topo", "pair", "-duration", "20ms"}, 0, "",
			func(t *testing.T, out string) {
				if strings.Contains(out, "Inf") {
					t.Errorf("dtpd report prints an infinity:\n%s", out)
				}
			}},
		// dtpd's trace used to keep only its last 16 384 events, none of
		// them the INIT measurements the OWD check reads.
		{"dtpd trace out", []string{"dtpd", "-topo", "tree", "-duration", "20ms", "-trace-out", dtpdTrace}, 0, "", nil},
		{"dtpd trace owd", []string{"dtptrace", "-trace", dtpdTrace, "-topo", "tree", "-assert-owd", "43:45"}, 0, "", nil},
		// dtpd's metrics used to carry a wall-clock rate, so equal seeds
		// wrote different files.
		{"dtpd metrics out", []string{"dtpd", "-topo", "tree", "-duration", "20ms", "-seed", "3", "-metrics-out", dtpdMetrics[0]}, 0, "",
			func(t *testing.T, _ string) {
				// The follower error is observed as a magnitude, so its
				// histogram has no bucket below zero.
				m, err := os.ReadFile(dtpdMetrics[0])
				if err != nil {
					t.Fatal(err)
				}
				buckets := 0
				for _, line := range strings.Split(string(m), "\n") {
					le, ok := strings.CutPrefix(line, `dtp_utc_error_ns_bucket{le="`)
					if !ok {
						continue
					}
					buckets++
					if strings.HasPrefix(le, "-") {
						t.Errorf("dtp_utc_error_ns has a negative bucket bound: %s", line)
					}
				}
				if buckets == 0 {
					t.Error("-metrics-out has no dtp_utc_error_ns buckets")
				}
			}},
		{"dtpd metrics rerun", []string{"dtpd", "-topo", "tree", "-duration", "20ms", "-seed", "3", "-metrics-out", dtpdMetrics[1]}, 0, "",
			func(t *testing.T, _ string) {
				a, errA := os.ReadFile(dtpdMetrics[0])
				b, errB := os.ReadFile(dtpdMetrics[1])
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Errorf("two dtpd runs at one seed wrote different metrics (read errors %v, %v)", errA, errB)
				}
			}},
		{"dtpd unknown topology", []string{"dtpd", "-topo", "nope"}, 2, "unknown topology", nil},
		// The serving plane is always attached: the flag that used to
		// gate it is gone, and -load-qps works on its own.
		{"dtpd removed flag", []string{"dtpd", "-serve-time"}, 2, "flag provided but not defined", nil},
		{"dtpd read load", []string{"dtpd", "-load-qps", "1000", "-duration", "30ms", "-topo", "tree"}, 0, "",
			func(t *testing.T, out string) {
				// Rows of the time-service table: host publishes degraded width reads errors.
				for _, line := range strings.Split(out, "\n") {
					if f := strings.Fields(line); len(f) == 6 && f[0] == "s5" && f[4] != "0" {
						return
					}
				}
				t.Errorf("no served host reports reads under -load-qps:\n%s", out)
			}},
		{"dtpexp nothing selected", []string{"dtpexp"}, 2, "", nil},
		// An unknown name used to exit 1, and only after the experiments
		// named before it had run.
		{"dtpexp unknown name", []string{"dtpexp", "-fig", "6a", "-sweep", "nosuch"}, 2, "dtpexp: unknown -sweep", nil},
		// A topology past the device cap used to die out of memory.
		{"topology over the device cap", []string{"dtpsim", "-topo", "fattree:512"}, 2, "dtpsim: dtp: topology", nil},
		// The scenario names tree devices, so arming it on a pair fails
		// after profiling has started.
		{"error exit under -pprof", []string{"dtpsim", "-topo", "pair", "-pprof", prof,
			"-chaos", "../examples/chaos/liar.json"}, 2, "no node named", nil},
		{"fault start past the clock", []string{"dtpsim", "-topo", "pair", "-chaos", farAt}, 2, "does not fit the simulated clock", nil},
		{"fault end past the clock", []string{"dtpsim", "-topo", "pair", "-chaos", farEnd}, 2, "overflows the simulated clock", nil},
		{"grid cadence past the clock", []string{"dtpsim", "-campaign", farGrid}, 2, "does not fit the simulated clock", nil},
		{"unknown grid key", []string{"dtpsim", "-campaign", typoGrid}, 2,
			"dtpsim: campaign: parsing " + typoGrid + `: json: unknown field "topo"`, nil},
		{"unknown fault key", []string{"dtpsim", "-topo", "pair", "-chaos", typoFault}, 2,
			"dtpsim: chaos: " + typoFault + `: json: unknown field "durration"`, nil},
		{"grid topology", []string{"dtpsim", "-campaign", moebius}, 2,
			"dtpsim: campaign: " + moebius + `: campaign: dtp: unknown topology "moebius"`, nil},
		{"grid scenario", []string{"dtpsim", "-campaign", noScenario}, 2,
			"dtpsim: campaign: " + noScenario + ": campaign: chaos: open /nonexistent.json", nil},
		{"grid liars", []string{"dtpsim", "-campaign", liars}, 2,
			"dtpsim: campaign: " + liars + `: campaign: 3 liars but topology "pair" has only 2 host devices`, nil},
		// Flags the mode does not read used to be ignored: a sweep wrote
		// none of its three files, a grid ran at seed 1 on pair.
		{"sweep with single-mode outputs", []string{"dtpsim", "-sweep-seeds", "2", "-metrics-out", "m",
			"-trace-out", "t", "-timeline-out", "tl"}, 2, "dtpsim: -metrics-out is not read in seed-sweep mode", nil},
		{"grid with run flags", []string{"dtpsim", "-campaign", smoke, "-seed", "9", "-topo", "tree"}, 2,
			"dtpsim: -seed is not read in grid mode", nil},
		{"single with -jobs", []string{"dtpsim", "-jobs", "3"}, 2, "dtpsim: -jobs is not read in single mode", nil},
		// A NaN BER passed every range check and ran as BER 0; a sweep
		// with BER 1.5 failed every run in Arm instead of exiting 2.
		{"NaN BER", []string{"dtpsim", "-topo", "pair", "-duration", "2ms", "-ber", "NaN"}, 2,
			"dtpsim: campaign: BER NaN outside [0, 1)", nil},
		{"sweep BER past 1", []string{"dtpsim", "-sweep-seeds", "2", "-ber", "1.5"}, 2,
			"dtpsim: campaign: BER 1.5 outside [0, 1)", nil},
	} {
		cmd := exec.Command(filepath.Join(dir, tc.argv[0]), tc.argv[1:]...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if cmd.ProcessState == nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code := cmd.ProcessState.ExitCode(); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: %v exited %d, want %d with %q on stderr; stderr:\n%s",
				tc.name, tc.argv, code, tc.code, tc.stderr, &stderr)
		}
		// A panic exits 2 as well: a bad invocation must say what is
		// wrong, not print a goroutine trace.
		if tc.code == 2 && (strings.Contains(stderr.String(), "panic:") || strings.Contains(stderr.String(), "goroutine ")) {
			t.Errorf("%s: %v panicked:\n%s", tc.name, tc.argv, &stderr)
		}
		// A row expecting "cmd: …" expects that one line and nothing else.
		if prefix := tc.argv[0] + ": "; strings.HasPrefix(tc.stderr, prefix) &&
			(!strings.HasPrefix(stderr.String(), prefix) || strings.Count(stderr.String(), "\n") != 1) {
			t.Errorf("%s: want one %q line on stderr, got:\n%s", tc.name, prefix, &stderr)
		}
		if tc.stdout != nil {
			tc.stdout(t, stdout.String())
		}
	}
	// The error exit above must still have flushed both profiles.
	for _, ext := range []string{".cpu", ".allocs"} {
		if fi, err := os.Stat(prof + ext); err != nil || fi.Size() == 0 {
			t.Errorf("dtpsim -pprof lost %s%s on an error exit (stat: %v)", prof, ext, err)
		}
	}
}
