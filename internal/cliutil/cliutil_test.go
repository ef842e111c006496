package cliutil

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, f *Flags, which Set, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(bytes.Buffer))
	f.Register(fs, which)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f.Validate()
}

func TestRegisterDefaults(t *testing.T) {
	var f Flags
	if err := parse(t, &f, FlagTopo|FlagSeed|FlagDuration|FlagJobs); err != nil {
		t.Fatal(err)
	}
	if f.Topo != "" || f.Seed != 1 || f.Duration != 0 || f.Jobs != 0 {
		t.Fatalf("defaults wrong: %+v", f)
	}
}

func TestRegisterRespectsPresetDefaults(t *testing.T) {
	f := Flags{Topo: "tree", Duration: 2 * time.Second}
	if err := parse(t, &f, FlagTopo|FlagDuration); err != nil {
		t.Fatal(err)
	}
	if f.Topo != "tree" || f.Duration != 2*time.Second {
		t.Fatalf("per-command defaults lost: %+v", f)
	}
}

func TestParseOverrides(t *testing.T) {
	var f Flags
	err := parse(t, &f, FlagTopo|FlagSeed|FlagDuration|FlagJobs,
		"-topo", "chain:4", "-seed", "9", "-duration", "10ms", "-jobs", "4")
	if err != nil {
		t.Fatal(err)
	}
	if f.Topo != "chain:4" || f.Seed != 9 || f.Duration != 10*time.Millisecond || f.Jobs != 4 {
		t.Fatalf("parsed %+v", f)
	}
	g, err := f.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) == 0 {
		t.Fatal("empty topology")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		which Set
		args  []string
		want  string
	}{
		{FlagTopo, []string{"-topo", "klein:2"}, "unknown topology"},
		{FlagTopo, []string{"-topo", "fattree:3"}, "fat-tree"},
		{FlagDuration, []string{"-duration", "-5ms"}, "-duration"},
		{FlagJobs, []string{"-jobs", "-1"}, "-jobs"},
		{FlagChaos, []string{"-chaos", "/nonexistent/scenario.json"}, "scenario"},
	}
	for _, c := range cases {
		var f Flags
		err := parse(t, &f, c.which, c.args...)
		if err == nil {
			t.Fatalf("args %v validated, want error containing %q", c.args, c.want)
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) &&
			!strings.Contains(err.Error(), "no such file") {
			t.Fatalf("args %v: error %q does not mention %q", c.args, err, c.want)
		}
	}
}

func TestValidateOnlyChecksRegistered(t *testing.T) {
	f := Flags{Jobs: -5, Duration: -time.Second}
	if err := parse(t, &f, FlagSeed); err != nil {
		t.Fatalf("unregistered flags must not be validated: %v", err)
	}
}

func TestWriteFile(t *testing.T) {
	path := t.TempDir() + "/out.txt"
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read %q, %v", b, err)
	}
}

func TestDisciplineFlag(t *testing.T) {
	var f Flags
	err := parse(t, &f, FlagDiscipline, "-discipline", "pll")
	if err != nil {
		t.Fatal(err)
	}
	dc, err := f.ParseDiscipline()
	if err != nil {
		t.Fatal(err)
	}
	if dc.Kind != "pll" {
		t.Fatalf("parsed kind %q, want pll", dc.Kind)
	}

	var unset Flags
	if err := parse(t, &unset, FlagDiscipline); err != nil {
		t.Fatal(err)
	}
	if dc, err := unset.ParseDiscipline(); err != nil || dc.Kind != "" {
		t.Fatalf("unset -discipline must parse to the zero config, got %+v, %v", dc, err)
	}

	for _, spec := range []string{"kalman", "ma:gain=0.3"} {
		var bad Flags
		if err := parse(t, &bad, FlagDiscipline, "-discipline", spec); err == nil {
			t.Fatalf("-discipline %s validated", spec)
		}
	}
}
