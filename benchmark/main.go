// Command benchmark is the one benchmark of the whole system: five
// workloads driving the public façade exactly as dtpsim, dtpd and dtpload
// do, each correctness-gated, with end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md.
//
//	go run ./benchmark                       every workload, tracing off
//	go run ./benchmark -trace 1              the same with spans and probes
//	go run ./benchmark -workload tree_beacon -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json
//
// The last form of the run commands is the one BENCHMARK.json's driver
// uses (through run.sh): one workload, and as the last stdout line one
// JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run only this workload (default: each in a child process)")
		seedFlag     = flag.Uint64("seed", 1, "workload seed; reaches the program only through generated inputs")
		secondsFlag  = flag.Float64("seconds", 10, "wall seconds each workload measures for")
		traceFlag    = flag.Int("trace", 0, "1 records spans and runs the per-layer probes")
		outFlag      = flag.String("out", "", "results file (default benchmark/out/results[-trace].json, or <workload>[-trace].json)")
		outDirFlag   = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for results, traces and generated inputs")
		compareFlag  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		specFlag     = flag.String("spec", "BENCHMARK.json", "metric bounds for -compare")
	)
	flag.Parse()

	if *compareFlag {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare a.json b.json")
		}
		ok, err := compareFiles(os.Stdout, *specFlag, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments %q", flag.Args())
	}
	if *secondsFlag <= 0 {
		fatal(2, "-seconds must be positive")
	}
	trace := *traceFlag != 0
	suffix := ""
	if trace {
		suffix = "-trace"
	}

	// Fixed conditions: the box has 2 cores and no workload has more than
	// 2 busy goroutines. A 1-CPU host records gomaxprocs 1 and is not
	// comparable.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *workloadFlag == "" {
		out := *outFlag
		if out == "" {
			out = filepath.Join(*outDirFlag, "results"+suffix+".json")
		}
		os.Exit(runAll(*seedFlag, *secondsFlag, *traceFlag, *outDirFlag, out))
	}

	w := findWorkload(*workloadFlag)
	if w == nil {
		fatal(2, "unknown workload %q", *workloadFlag)
	}
	rc := newRunCtx(w.name, *seedFlag, *secondsFlag, trace, fullSize, *outDirFlag)
	spans, err := rc.run(w)
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	out := *outFlag
	if out == "" {
		out = filepath.Join(*outDirFlag, w.name+suffix+".json")
	}
	if err := writeJSON(out, resultsFile{Env: currentEnv(), Runs: []runRecord{*rc.rec}}); err != nil {
		fatal(1, "%v", err)
	}
	if trace {
		if err := writeJSON(tracePath(*outDirFlag, w.name), spans); err != nil {
			fatal(1, "%v", err)
		}
	}
	rc.rec.print()
	fmt.Println(rc.rec.driverLine())
	if !rc.rec.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// run executes one workload end to end: set-up and measurement, then, in
// the traced run, the probes. It returns the spans of a traced run.
func (rc *runCtx) run(w *workload) ([]span, error) {
	if err := w.run(rc); err != nil {
		return nil, err
	}
	var spans []span
	if rc.tr != nil {
		m := rc.runProbes()
		spans = rc.tr.close()
		rc.workloadLayerMetrics(m, spans)
		rc.rec.PerLayer = map[string]value{}
		for _, d := range perLayer {
			v, ok := m[d.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
			}
			rc.rec.PerLayer[d.Name] = value{v, d.Unit}
		}
	}
	rc.finish()
	return spans, nil
}

// runAll runs every workload in a re-exec'd child, so peak_rss_mb is
// each workload's own, merges the children's records into one results
// file (and their spans into trace.json) and returns the exit code.
func runAll(seed uint64, seconds float64, trace int, outDir, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	merged := resultsFile{Env: currentEnv()}
	var spans []span
	var failed []string
	for _, w := range workloads {
		childOut := filepath.Join(outDir, w.name+".child.json")
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-outdir", outDir, "-out", childOut)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
		rf, err := readResults(childOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s left no results: %v\n", w.name, err)
			continue
		}
		_ = os.Remove(childOut) // merged below; a leftover is harmless
		merged.Runs = append(merged.Runs, rf.Runs...)
		if trace != 0 {
			b, err := os.ReadFile(tracePath(outDir, w.name))
			var s []span
			if err == nil {
				err = json.Unmarshal(b, &s)
			}
			if err != nil {
				fatal(1, "%v", err)
			}
			// Parents are indices into each child's own list.
			for i := range s {
				if s[i].Parent >= 0 {
					s[i].Parent += len(spans)
				}
			}
			spans = append(spans, s...)
		}
	}
	if err := writeJSON(out, merged); err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("results written to %s\n", out)
	if trace != 0 {
		tp := filepath.Join(outDir, "trace.json")
		if err := writeJSON(tp, spans); err != nil {
			fatal(1, "%v", err)
		}
		fmt.Printf("%d spans written to %s\n", len(spans), tp)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED workloads: %v\n", failed)
		return 1
	}
	return 0
}
