package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/flipbit-sim/flipbit/internal/isc"
	"github.com/flipbit-sim/flipbit/internal/kvs"
)

// Scaled-down versions of the three workloads: the same code paths, small
// enough for a unit test.
var smoke = map[string]scenario{
	"kv-churn": kvScenario(kvConfig{
		keys: 2000, valSize: 128, banks: 1,
		putPct: 45, getPct: 50, delPct: 5, hotKeyPct: 10, hotOpPct: 90, warmupPuts: 1600,
		prefixOps: 3000, mountsPerReboot: 2, setupReps: 1, checkSample: 64,
	}),
	"frame-capture": frameScenario(frameConfig{spares: 8, warmupFrames: 50, prefixFrames: 200, rebootEvery: 50, setupReps: 1, coldChecks: 4}),
	"kv-scan-reboot": kvScenario(kvConfig{
		keys: 500, valSize: 64, banks: 4, dataPages: 64,
		putPct: 30, getPct: 60, scanBuckets: 100, warmupPuts: 1000,
		prefixOps: 2000, rebootEvery: 500, mountsPerReboot: 1, setupReps: 1, checkSample: 64,
	}),
}

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkNames fails unless got reports exactly the declared metrics, each
// with its declared unit.
func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("reported %d metrics %v, BENCHMARK.json declares %d", len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(scenarios))
	}
	for _, w := range bf.Workloads {
		if _, ok := scenarios[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if _, ok := smoke[w.Name]; !ok {
			t.Errorf("workload %s has no smoke configuration", w.Name)
		}
	}
}

// TestSmoke runs each scaled-down workload untraced and traced: the oracle
// must accept every op, the traced and untraced runs must leave identical
// totals, the ledger must reconcile, and every declared metric is reported.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for name, sc := range smoke {
		t.Run(name, func(t *testing.T) {
			rep, err := runUntraced(sc, 7, time.Nanosecond)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < sc.prefixOps {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.failures)
			}
			checkNames(t, rep.Metrics, bf.EndToEnd)
			for n, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.tsv.gz")
			tr, err := runTraced(sc, 7, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Failed != 0 || tr.info["equivalent_totals"] != true {
				t.Fatalf("traced: correct=%v failed=%d info=%v: %v", tr.Correct, tr.Failed, tr.info, tr.failures)
			}
			checkNames(t, tr.Metrics, bf.PerLayer)
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}

// TestDeterminism: the same seed gives byte-identical device metrics and
// inputs; another seed gives other inputs.
func TestDeterminism(t *testing.T) {
	for name, sc := range smoke {
		t.Run(name, func(t *testing.T) {
			run := func(seed uint64) (deviceMetrics, uint64) {
				w, err := sc.setup(seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				m := newMeter()
				dm := drive(w, m, sc.prefixOps, sc.rebootEvery, sc.mountsPerReboot, time.Time{})
				if m.failed != 0 {
					t.Fatalf("seed %d: %d failed ops: %v", seed, m.failed, m.failures)
				}
				return dm, m.prefixFP
			}
			a, fpA := run(3)
			b, fpB := run(3)
			if a != b || fpA != fpB {
				t.Errorf("same seed, different results:\n%+v %x\n%+v %x", a, fpA, b, fpB)
			}
			if _, fpC := run(4); fpC == fpA {
				t.Errorf("seeds 3 and 4 generated the same inputs")
			}
		})
	}
}

// The oracle must reject corrupted results; the program is not involved.
func TestCheckGetRejects(t *testing.T) {
	want := []byte{1, 2, 3}
	if err := checkGet("k", []byte{1, 2, 3}, nil, want); err != nil {
		t.Fatalf("correct value rejected: %v", err)
	}
	if err := checkGet("k", []byte{1, 2, 4}, nil, want); err == nil {
		t.Error("wrong value accepted")
	}
	if err := checkGet("k", nil, kvs.ErrNotFound, want); err == nil {
		t.Error("missing live key accepted")
	}
	if err := checkGet("k", nil, kvs.ErrNotFound, nil); err != nil {
		t.Errorf("deleted key reported missing rejected: %v", err)
	}
	if err := checkGet("k", want, nil, nil); err == nil {
		t.Error("deleted key returning a value accepted")
	}
}

func TestCheckScanRejects(t *testing.T) {
	want := map[string][]byte{"a": {1}, "b": {2}}
	if err := checkScan([]kvs.KV{{Key: "b", Val: []byte{2}}, {Key: "a", Val: []byte{1}}}, want); err != nil {
		t.Fatalf("correct set in another order rejected: %v", err)
	}
	for name, got := range map[string][]kvs.KV{
		"missing":  {{Key: "a", Val: []byte{1}}},
		"extra":    {{Key: "a", Val: []byte{1}}, {Key: "b", Val: []byte{2}}, {Key: "c", Val: []byte{3}}},
		"swapped":  {{Key: "a", Val: []byte{1}}, {Key: "c", Val: []byte{2}}},
		"repeated": {{Key: "a", Val: []byte{1}}, {Key: "a", Val: []byte{1}}},
		"value":    {{Key: "a", Val: []byte{1}}, {Key: "b", Val: []byte{9}}},
	} {
		if err := checkScan(got, want); err == nil {
			t.Errorf("%s: wrong scan set accepted", name)
		}
	}
}

func TestCheckFrameRejects(t *testing.T) {
	want := make([]byte, 1024)
	got := make([]byte, 1024)
	for i := range got[:256] {
		got[i] = 2 // MAE exactly 2.0 on page 0: allowed
	}
	if _, err := checkFrame(got, want, 256, frameThreshold); err != nil {
		t.Fatalf("page at the threshold rejected: %v", err)
	}
	got[300] = 3 // page 1: MAE 3/256, fine
	got[600] = 255
	for i := 512; i < 768; i++ {
		got[i] = 3 // page 2: MAE 3 > 2
	}
	if _, err := checkFrame(got, want, 256, frameThreshold); err == nil {
		t.Error("over-threshold page accepted")
	}
}

// The scan oracle's expected set is the model filtered by the predicate.
func TestScanWantFiltersModel(t *testing.T) {
	w, err := newKV(&kvConfig{
		keys: 300, valSize: 16, banks: 4, dataPages: 16, putPct: 100, scanBuckets: 10,
		prefixOps: 1, checkSample: 1,
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := isc.Not(isc.In(scanField, 0, 1, 2, 3, 4, 5, 6, 7))
	want := w.scanWant(p)
	n := 0
	for k, v := range w.model {
		if v[0] >= 8 {
			n++
			if _, ok := want[w.names[k]]; !ok {
				t.Errorf("key %s in bucket %d missing", w.names[k], v[0])
			}
		}
	}
	if n == 0 || len(want) != n {
		t.Errorf("want %d keys, model has %d matching", len(want), n)
	}
	got, err := w.store.Scan(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScan(got, want); err != nil {
		t.Error(err)
	}
}
