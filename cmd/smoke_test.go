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
	prof := filepath.Join(dir, "prof")
	liar := []string{"-topo", "tree", "-duration", "160ms", "-chaos", "../examples/chaos/liar.json"}

	// In order: the dtptrace step reads what the -trace-out step wrote.
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
		{"dtpd run", []string{"dtpd", "-topo", "pair", "-duration", "20ms", "-cal", "5ms"}, 0, "",
			func(t *testing.T, out string) {
				if strings.Contains(out, "Inf") {
					t.Errorf("dtpd report prints an infinity:\n%s", out)
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
		// The scenario names tree devices, so arming it on a pair fails
		// after profiling has started.
		{"error exit under -pprof", []string{"dtpsim", "-topo", "pair", "-pprof", prof,
			"-chaos", "../examples/chaos/liar.json"}, 2, "no node named", nil},
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
