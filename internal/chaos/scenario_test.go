package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

// TestScenarioJSONRoundTrip: a scenario built in Go survives an encode/
// decode cycle unchanged — durations render as human-readable strings
// and parse back to the same sim.Time.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Scenario{
		Name:               "roundtrip",
		Description:        "all fault kinds",
		SettleGrace:        D(600 * sim.Microsecond),
		ReconvergeDeadline: D(8 * sim.Millisecond),
		Faults: []Fault{
			{Kind: KindFlap, Link: []string{"sw1", "sw2"}, At: D(2 * sim.Millisecond),
				Duration: D(sim.Millisecond), MeanUp: D(200 * sim.Microsecond), MeanDown: D(100 * sim.Microsecond)},
			{Kind: KindBERBurst, Link: []string{"sw3", "sw4"}, At: D(2500 * sim.Microsecond),
				Duration: D(sim.Millisecond), BER: 1e-4},
			{Kind: KindBERDegrade, Link: []string{"h0", "sw1"}, At: D(5 * sim.Millisecond), BER: 1e-9},
			{Kind: KindGreyLoss, Link: []string{"h0", "sw1"}, At: D(sim.Millisecond),
				Duration: D(500 * sim.Microsecond), LossP: 0.5},
			{Kind: KindGreyDelay, Link: []string{"sw1", "h1"}, At: D(sim.Millisecond),
				Duration: D(sim.Millisecond), ExtraDelay: D(50 * sim.Nanosecond), Steps: 5},
			{Kind: KindFreqStep, Device: "h0", At: D(3 * sim.Millisecond),
				Duration: D(sim.Millisecond), PPMStep: 150},
			{Kind: KindTempRamp, Device: "sw1", At: D(3 * sim.Millisecond),
				Duration: D(sim.Millisecond), PPMStep: -60},
			{Kind: KindCrash, Device: "sw2", At: D(4 * sim.Millisecond),
				Duration: D(500 * sim.Microsecond)},
			{Kind: KindLiar, Device: "h0", At: D(5 * sim.Millisecond),
				Duration: D(sim.Millisecond), JumpUnits: 5000, Cadence: D(2 * sim.Microsecond)},
			{Kind: KindOverclaim, Device: "h1", At: D(5 * sim.Millisecond),
				Duration: D(sim.Millisecond), JumpUnits: 6, Cadence: D(10 * sim.Microsecond)},
			{Kind: KindSpoof, Link: []string{"h0", "sw1"}, At: D(6 * sim.Millisecond),
				Duration: D(sim.Millisecond), JumpUnits: 6, Cadence: D(2 * sim.Microsecond)},
		},
	}
	b, err := json.MarshalIndent(&sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"2ms"`) {
		t.Fatalf("durations should render as Go duration strings, got:\n%s", b)
	}
	var back Scenario
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the scenario:\n  in:  %+v\n  out: %+v", sc, back)
	}
	if err := back.validate(); err != nil {
		t.Fatalf("round-tripped scenario invalid: %v", err)
	}
}

// TestDurationUnmarshal: both duration strings and bare nanosecond
// numbers parse; garbage, negatives and values past sim.Time's range
// (about 106 days) are rejected.
func TestDurationUnmarshal(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
		ok   bool
	}{
		{`"150us"`, 150 * sim.Microsecond, true},
		{`"2ms"`, 2 * sim.Millisecond, true},
		{`1500`, 1500 * sim.Nanosecond, true},
		{`"-2ms"`, 0, false},
		{`-5`, 0, false},
		{`"xyz"`, 0, false},
		{`{}`, 0, false},
		{`"2562h"`, 2562 * 3600 * sim.Second, true},
		{`"3000h"`, 0, false},
		{`9300000000000000`, 0, false},
	}
	for _, c := range cases {
		var d Duration
		err := json.Unmarshal([]byte(c.in), &d)
		if c.ok != (err == nil) {
			t.Errorf("%s: err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && d.T != c.want {
			t.Errorf("%s: got %v, want %v", c.in, d.T, c.want)
		}
	}
}

// TestScenarioValidation: every structural error class is caught.
func TestScenarioValidation(t *testing.T) {
	link := []string{"a", "b"}
	cases := []struct {
		name string
		sc   Scenario
		want string // substring of the expected error, "" = valid
	}{
		{"empty", Scenario{Name: "x"}, "no faults"},
		{"unknown kind", Scenario{Faults: []Fault{{Kind: "meteor"}}}, "unknown fault kind"},
		{"flap missing link", Scenario{Faults: []Fault{
			{Kind: KindFlap, Duration: D(1), MeanUp: D(1), MeanDown: D(1)}}}, "requires \"link\""},
		{"flap missing means", Scenario{Faults: []Fault{
			{Kind: KindFlap, Link: link, Duration: D(1)}}}, "mean_up"},
		{"ber out of range", Scenario{Faults: []Fault{
			{Kind: KindBERBurst, Link: link, Duration: D(1), BER: 1.5}}}, "\"ber\" in (0, 1)"},
		{"ber burst no duration", Scenario{Faults: []Fault{
			{Kind: KindBERBurst, Link: link, BER: 1e-4}}}, "positive \"duration\""},
		// A permanent fault's duration used to move the Verify deadline.
		{"ber degrade with duration", Scenario{Faults: []Fault{
			{Kind: KindBERDegrade, Link: link, Duration: D(sim.Second), BER: 1e-12}}}, "ber_degrade takes no \"duration\""},
		{"grey loss bad p", Scenario{Faults: []Fault{
			{Kind: KindGreyLoss, Link: link, Duration: D(1), LossP: 0}}}, "loss_p"},
		{"grey delay no extra", Scenario{Faults: []Fault{
			{Kind: KindGreyDelay, Link: link, Duration: D(1)}}}, "extra_delay"},
		{"freq step no device", Scenario{Faults: []Fault{
			{Kind: KindFreqStep, PPMStep: 10}}}, "requires \"device\""},
		{"freq step zero ppm", Scenario{Faults: []Fault{
			{Kind: KindFreqStep, Device: "d", PPMStep: 0}}}, "ppm_step"},
		{"temp ramp no duration", Scenario{Faults: []Fault{
			{Kind: KindTempRamp, Device: "d", PPMStep: 5}}}, "duration"},
		{"crash no duration", Scenario{Faults: []Fault{
			{Kind: KindCrash, Device: "d"}}}, "duration"},
		{"negative steps", Scenario{Faults: []Fault{
			{Kind: KindTempRamp, Device: "d", PPMStep: 5, Duration: D(1), Steps: -2}}}, "negative steps"},
		{"liar missing device", Scenario{Faults: []Fault{
			{Kind: KindLiar, Duration: D(1), JumpUnits: 100, Cadence: D(1)}}}, "requires \"device\""},
		{"liar missing jump_units", Scenario{Faults: []Fault{
			{Kind: KindLiar, Device: "d", Duration: D(1), Cadence: D(1)}}}, "positive \"jump_units\""},
		{"liar missing cadence", Scenario{Faults: []Fault{
			{Kind: KindLiar, Device: "d", Duration: D(1), JumpUnits: 100}}}, "positive \"cadence\""},
		{"overclaim no duration", Scenario{Faults: []Fault{
			{Kind: KindOverclaim, Device: "d", JumpUnits: 4, Cadence: D(1)}}}, "positive \"duration\""},
		{"spoof missing link", Scenario{Faults: []Fault{
			{Kind: KindSpoof, Duration: D(1), JumpUnits: 4, Cadence: D(1)}}}, "requires \"link\""},
		{"spoof missing jump_units", Scenario{Faults: []Fault{
			{Kind: KindSpoof, Link: link, Duration: D(1), Cadence: D(1)}}}, "positive \"jump_units\""},
		{"window past the clock", Scenario{Faults: []Fault{
			{Kind: KindCrash, Device: "d", At: D(2000 * 3600 * sim.Second), Duration: D(2000 * 3600 * sim.Second)}}}, "overflows"},
		{"deadline past the clock", Scenario{ReconvergeDeadline: D(1 << 62), Faults: []Fault{
			{Kind: KindCrash, Device: "d", At: D(1 << 62), Duration: D(1)}}}, "overflows"},
		{"valid", Scenario{Faults: []Fault{
			{Kind: KindCrash, Device: "d", At: D(1), Duration: D(1)}}}, ""},
		{"valid liar", Scenario{Faults: []Fault{
			{Kind: KindLiar, Device: "d", At: D(1), Duration: D(1), JumpUnits: 5000, Cadence: D(1)}}}, ""},
	}
	for _, c := range cases {
		err := c.sc.validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// TestValidationNamesFaultIndex: a bad fault in a multi-fault scenario
// is reported by its position, so an author editing a long JSON file
// knows which entry to fix.
func TestValidationNamesFaultIndex(t *testing.T) {
	sc := Scenario{Faults: []Fault{
		{Kind: KindCrash, Device: "d", At: D(1), Duration: D(1)},
		{Kind: "meteor"},
	}}
	err := sc.validate()
	if err == nil {
		t.Fatal("scenario with unknown kind validated")
	}
	if !strings.Contains(err.Error(), "fault 1:") {
		t.Fatalf("error %q does not name the offending fault index", err)
	}
	if !strings.Contains(err.Error(), "unknown fault kind") {
		t.Fatalf("error %q lost the underlying cause", err)
	}
}

// TestLoad: a scenario file loads, gets validated, and bad files fail
// with a path-qualified error.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{
		"name": "file",
		"faults": [
			{"kind": "crash", "device": "sw1", "at": "1ms", "duration": "500us"}
		]
	}`), 0o644)
	sc, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Faults[0].At.T != sim.Millisecond {
		t.Fatalf("at = %v, want 1ms", sc.Faults[0].At.T)
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"name": "x", "faults": [{"kind": "meteor"}]}`), 0o644)
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
		t.Fatalf("bad scenario loaded: %v", err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestLoadRejectsUnknownKeys: a misspelled key is an error, not a
// default. "durration" once made a fault permanent and "settle_grac"
// fell back to the default grace, both silently.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, json, want string }{
		{"fault key", `{"name": "x", "faults": [{"kind": "freq_step", "device": "h0", "at": "1ms",
			"ppm_step": 20, "durration": "2ms"}]}`, `unknown field "durration"`},
		{"scenario key", `{"name": "x", "settle_grac": "1ms", "faults": [{"kind": "crash", "device": "h0",
			"at": "1ms", "duration": "1ms"}]}`, `unknown field "settle_grac"`},
		{"trailing data", `{"name": "x", "faults": [{"kind": "crash", "device": "h0", "at": "1ms",
			"duration": "1ms"}]} {}`, "data after the scenario"},
	} {
		path := filepath.Join(dir, "sc.json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzScenarioJSON: decoding and validating any input never panics, and
// an accepted scenario re-encodes to bytes that decode, validate and
// re-encode unchanged, with every fault ending at or after its start.
// The corpus is the shipped scenarios plus the overflowing durations
// that once crashed dtpsim -chaos and the permanent fault whose
// duration once stretched the Verify deadline.
func FuzzScenarioJSON(f *testing.F) {
	paths, err := filepath.Glob("../../examples/chaos/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"faults":[{"kind":"crash","device":"d","at":"3000h","duration":"1ms"}]}`))
	f.Add([]byte(`{"faults":[{"kind":"crash","device":"d","at":9300000000000000,"duration":"1ms"}]}`))
	f.Add([]byte(`{"faults":[{"kind":"crash","device":"d","at":"2000h","duration":"2000h"}]}`))
	f.Add([]byte(`{"faults":[{"kind":"ber_degrade","link":["h0","h1"],"at":"1ms","duration":"1s","ber":1e-12}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		sc, err := decode(b)
		if err != nil || sc.validate() != nil {
			return
		}
		for i, fl := range sc.Faults {
			if fl.At.T+fl.Duration.T < fl.At.T {
				t.Fatalf("fault %d ends at %v, before its start %v", i, fl.At.T+fl.Duration.T, fl.At.T)
			}
		}
		out, err := json.Marshal(&sc)
		if err != nil {
			t.Fatalf("accepted scenario does not encode: %v", err)
		}
		back, err := decode(out)
		if err != nil {
			t.Fatalf("re-encoded scenario does not decode: %v\n%s", err, out)
		}
		if err := back.validate(); err != nil {
			t.Fatalf("re-encoded scenario does not validate: %v\n%s", err, out)
		}
		if again, _ := json.Marshal(&back); !bytes.Equal(again, out) {
			t.Fatalf("round trip changed the scenario:\n%s\n%s", out, again)
		}
	})
}
