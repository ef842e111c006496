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
	}{
		{"clean run", []string{"dtpsim", "-topo", "pair", "-duration", "1ms"}, 0, ""},
		{"unknown topology", []string{"dtpsim", "-topo", "nope"}, 2, "unknown topology"},
		{"liar, plain mode", append([]string{"dtpsim"}, liar...), 1, ""},
		{"liar, hardened", append([]string{"dtpsim", "-hardened"}, liar...), 0, ""},
		{"trace out", []string{"dtpsim", "-topo", "pair", "-duration", "1ms", "-trace-out", trace}, 0, ""},
		{"trace in", []string{"dtptrace", "-trace", trace, "-topo", "pair"}, 0, ""},
		{"dtptrace without input", []string{"dtptrace"}, 2, "-trace or -bundle is required"},
		{"dtptrace missing file", []string{"dtptrace", "-trace", filepath.Join(dir, "absent")}, 1, ""},
		{"dtpd run", []string{"dtpd", "-topo", "pair", "-duration", "20ms", "-cal", "5ms"}, 0, ""},
		{"dtpd unknown topology", []string{"dtpd", "-topo", "nope"}, 2, "unknown topology"},
		{"dtpexp nothing selected", []string{"dtpexp"}, 2, ""},
		// The scenario names tree devices, so arming it on a pair fails
		// after profiling has started.
		{"error exit under -pprof", []string{"dtpsim", "-topo", "pair", "-pprof", prof,
			"-chaos", "../examples/chaos/liar.json"}, 2, "no node named"},
	} {
		cmd := exec.Command(filepath.Join(dir, tc.argv[0]), tc.argv[1:]...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if cmd.ProcessState == nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code := cmd.ProcessState.ExitCode(); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: %v exited %d, want %d with %q on stderr; stderr:\n%s",
				tc.name, tc.argv, code, tc.code, tc.stderr, &stderr)
		}
	}
	// The error exit above must still have flushed both profiles.
	for _, ext := range []string{".cpu", ".allocs"} {
		if fi, err := os.Stat(prof + ext); err != nil || fi.Size() == 0 {
			t.Errorf("dtpsim -pprof lost %s%s on an error exit (stat: %v)", prof, ext, err)
		}
	}
}
