package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizing holds every size knob of the benchmark. fullSize is what the
// command runs; bench_test.go runs the same code at testSize.
type sizing struct {
	setups     int // set-ups per run; setup_s is their median
	slowSetups int // same, for set-ups that take seconds (serve_reads)
	segments   int // measurement is cut into this many equal wall segments

	// Fidelity windows: the simulated prefix, in slices, over which the
	// exact statistics and the digest are taken. A run never stops
	// before its window is done, however short -seconds is.
	treeWindow, fatWindow, serveWindow int

	// Simulated warm-up inside each set-up.
	treeWarm, fatWarm, serveWarm, calibrate time.Duration

	stormSeeds int // storm seeds per campaign batch (× 2 disciplines)
	liarSeeds  int // liar seeds per campaign batch
	warmSeeds  int // storm seeds in the campaign warm-up

	readChunk time.Duration // wall length of one serve_reads step

	// Probes.
	probeMin    time.Duration // minimum wall per micro-probe
	probeChunk  time.Duration // simulated length of one differential chunk
	probeChunks int           // chunks per side, interleaved
	probeSeeds  int           // storm seeds in the jobs-1-vs-2 subset
}

var fullSize = sizing{
	setups: 5, slowSetups: 3, segments: 5,
	treeWindow: 1000, fatWindow: 300, serveWindow: 800,
	treeWarm: 20 * time.Millisecond, fatWarm: 2 * time.Millisecond,
	serveWarm: 150 * time.Millisecond, calibrate: 300 * time.Millisecond,
	stormSeeds: 16, liarSeeds: 2, warmSeeds: 4,
	readChunk:  50 * time.Millisecond,
	probeMin:   30 * time.Millisecond,
	probeChunk: 4 * time.Millisecond, probeChunks: 5, probeSeeds: 16,
}

// runCtx carries one run's inputs and collects its outputs.
type runCtx struct {
	seed    uint64
	seconds float64
	size    sizing
	outDir  string
	tr      *tracer // nil in the untraced run
	rec     *runRecord

	setupWalls []float64 // reference seconds, one per set-up
	segSpeed   []float64 // host speed factor, one per segment
	lat        []float64 // ns per op: the current segment's latency samples
	nLat       int       // latency samples over all segments
	segRate    []float64 // ops per second, one per segment
	segP50     []float64 // median latency sample, one per segment
	segP99     []float64 // p99 latency sample, one per segment
	segOn      []float64 // ns per op of segments with call spans on (traced run)
	segOff     []float64 // ... and off
	measured   time.Duration
	stop       bool // set by a step to end measurement early
	digest     hash.Hash
}

func newRunCtx(workload string, seed uint64, seconds float64, trace bool, size sizing, outDir string) *runCtx {
	rc := &runCtx{
		seed: seed, seconds: seconds, size: size, outDir: outDir,
		digest: sha256.New(),
		rec: &runRecord{
			Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
			Exact: map[string]float64{}, Samples: map[string]int{},
		},
	}
	for _, n := range exactNames {
		rc.rec.Exact[n] = 0
	}
	if trace {
		rc.tr = newTracer(workload)
	}
	return rc
}

// fail records a correctness failure; the run goes on so every failure
// is named, and the command exits non-zero at the end.
func (rc *runCtx) fail(format string, args ...any) {
	if len(rc.rec.Failures) < 8 {
		rc.rec.Failures = append(rc.rec.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one checked operation.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	rc.rec.Attempted++
	if !ok {
		rc.rec.Failed++
		rc.fail(format, args...)
	}
}

// hashU64 / hashF64 feed the simulated-statistics digest.
func (rc *runCtx) hashU64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		rc.digest.Write(b[:])
	}
}

func (rc *runCtx) hashF64(v float64) { rc.hashU64(math.Float64bits(v)) }

// setup runs build size.setups (or slowSetups) times under a "setup"
// span, records each wall time, closes all but the last instance and
// returns that one.
func setup[T any](rc *runCtx, n int, build func() (T, error), closeFn func(T)) (T, error) {
	var last T
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		speed := hostSpeed(refLoop(setupRefIters), setupRefIters)
		sp := rc.tr.begin("setup")
		t0 := time.Now()
		inst, err := build()
		rc.setupWalls = append(rc.setupWalls, time.Since(t0).Seconds()/speed)
		rc.tr.end(sp)
		if err != nil {
			return last, err
		}
		last = inst
	}
	return last, nil
}

// step is one timed call into the system. It returns the ops done and
// the wall time they took, and appends its own latency samples to rc.lat.
// done reports whether the fidelity window is complete.
type step func(i int) (ops float64, wall time.Duration, done bool)

// measure runs steps for rc.seconds of wall time, cut into size.segments
// equal segments, and at least until the fidelity window is done; a step
// may end it early by setting rc.stop. Before every step the reference
// loop runs for refIters iterations, off the step's clock; a segment's
// timings are divided by the host speed factor those runs give. Each
// segment yields one rate and one p50/p99 of its latency samples. In the
// traced run call spans are recorded in every other segment, so the two
// halves give the tracing overhead.
func (rc *runCtx) measure(callSpan string, refIters int, st step) {
	nSeg := rc.size.segments
	perSeg := time.Duration(rc.seconds * float64(time.Second) / float64(nSeg))
	i, done := 0, false
	for seg := 0; (seg < nSeg || !done) && !rc.stop; seg++ {
		spanOn := seg%2 == 0
		rc.tr.setCalls(spanOn)
		segSpan := rc.tr.begin("segment." + strconv.Itoa(seg))
		var ops float64
		var wall, refWall time.Duration
		refN := 0
		for segStart := time.Now(); ; {
			refWall += refLoop(refIters)
			refN += refIters
			sp := rc.tr.beginCall(callSpan)
			o, w, d := st(i)
			rc.tr.end(sp)
			i++
			ops += o
			wall += w
			done = d
			if rc.stop || time.Since(segStart) >= perSeg {
				break
			}
		}
		rc.tr.end(segSpan)
		rc.measured += wall
		speed := hostSpeed(refWall, refN)
		refNs := float64(wall.Nanoseconds()) / speed // the segment's wall, in reference ns
		rc.segSpeed = append(rc.segSpeed, speed)
		rc.segRate = append(rc.segRate, ops/(refNs/1e9))
		sort.Float64s(rc.lat)
		rc.segP50 = append(rc.segP50, quantileTies(rc.lat, 0.50)/speed)
		rc.segP99 = append(rc.segP99, quantileTies(rc.lat, 0.99)/speed)
		rc.nLat += len(rc.lat)
		rc.lat = rc.lat[:0]
		if spanOn {
			rc.segOn = append(rc.segOn, refNs/ops)
		} else {
			rc.segOff = append(rc.segOff, refNs/ops)
		}
	}
	rc.rec.Samples["steps"] = i
}

// finish turns what the run collected into the record's metrics.
func (rc *runCtx) finish() {
	r := rc.rec
	r.Digest = hex.EncodeToString(rc.digest.Sum(nil))
	r.Samples["setups"] = len(rc.setupWalls)
	r.Samples["segments"] = len(rc.segRate)
	r.Samples["latency"] = rc.nLat
	e2e := map[string]float64{
		"setup_s":     median(rc.setupWalls),
		"ops_per_s":   betterQuartile(rc.segRate, true),
		"op_p50_ns":   betterQuartile(rc.segP50, false),
		"op_p99_ns":   betterQuartile(rc.segP99, false),
		"peak_rss_mb": peakRSSMiB(),
	}
	r.EndToEnd = map[string]value{}
	for _, d := range endToEnd {
		r.EndToEnd[d.Name] = value{e2e[d.Name], d.Unit}
	}
	r.HostSpeed = median(rc.segSpeed)
	if r.Attempted == 0 {
		rc.fail("no operation was checked")
	}
	r.Correct = len(r.Failures) == 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// The reference loop. Timings on a shared host move with what the other
// tenants do: measured on this VM, a busy sibling hyperthread slows the
// simulator (and this loop) by up to 50 % for seconds to minutes at a
// time, while a single dependent chain of ALU ops beside them does not
// move at all. So every timing is reported in reference time: wall time
// divided by the host speed factor, which is how much slower than
// refNsPerIter the host ran this loop right beside the timed work. The
// loop is built to suffer like the program does: four independent
// chains, loads and stores in a 32 KiB table, a data-dependent branch.
// refNsPerIter only fixes the scale (this box, undisturbed, reads 1.0).
const (
	refNsPerIter  = 5.0
	simRefIters   = 60000   // ≈ 0.3 ms before each 2.5–5 ms slice
	setupRefIters = 1000000 // ≈ 5 ms before each set-up
)

var refTable [4096]uint64

func refLoop(n int) time.Duration {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		c += refTable[a>>52]
		if d&1 == 0 {
			d = d>>1 ^ c
		} else {
			d = d*3 + 1
		}
		refTable[b&4095] = d
	}
	probeSink += a + b + c + d
	return time.Since(t0)
}

// hostSpeed is the factor by which the host ran n reference iterations
// slower than nominal.
func hostSpeed(wall time.Duration, n int) float64 {
	return float64(wall.Nanoseconds()) / (float64(n) * refNsPerIter)
}

// betterQuartile is the quartile of the per-segment figures on their good
// side: the second best of five. On a shared host other tenants only ever
// slow a segment down, for seconds at a time, so the better quartile
// estimates the undisturbed system where the median still moves with how
// many segments were hit; a real regression slows every segment and moves
// both.
func betterQuartile(xs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		return s[len(s)-1-int(0.25*float64(len(s)-1))]
	}
	return quantileSorted(s, 0.25)
}

// quantileSorted returns the q-quantile of an ascending slice (0 when
// empty), by the nearest-rank rule cmd/dtpload uses.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[int(q*float64(len(s)-1))]
}

// quantileTies is quantileSorted for clock readings, which come in whole
// nanoseconds: a 120 ns read is timed as 119, 120 or 121 and thousands of
// samples tie. It spreads each run of equal values evenly over the ±0.5
// around it, so the quantile moves with the distribution instead of
// sticking to one integer.
func quantileTies(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := q * float64(len(s)-1)
	v := s[int(rank)]
	lo := sort.SearchFloat64s(s, v)
	hi := lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i] > v })
	return v - 0.5 + (rank-float64(lo)+0.5)/float64(hi-lo)
}

// peakRSSMiB is this process's VmHWM. Each workload runs in a process
// of its own, so the figure is that workload's.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// span is one traced interval: name, start, end, the span that caused it
// and the workload. Times are ns since the tracer was made.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory; they are written when the run ends. All
// methods are no-ops on a nil tracer, which is the untraced run.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
	calls    bool // whether beginCall records
}

func newTracer(workload string) *tracer {
	t := &tracer{t0: time.Now(), workload: workload}
	t.begin(workload)
	return t
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload,
		Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// setCalls switches the layer-call spans on or off; the phases around
// them (setup, segment.N, probes) are always recorded.
func (t *tracer) setCalls(on bool) {
	if t != nil {
		t.calls = on
	}
}

// beginCall opens a span around one call into a layer.
func (t *tracer) beginCall(name string) int {
	if t == nil || !t.calls {
		return -1
	}
	return t.begin(name)
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// close ends the root span and fills in self times: a span's duration
// minus the part its children cover.
func (t *tracer) close() []span {
	t.end(0)
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	return t.spans
}
