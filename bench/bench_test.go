package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.99, 100}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
}

// The spread of a set of runs is judged with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32, 64})
	if q1 != 2 || q2 != 8 || q3 != 32 {
		t.Errorf("quartiles(powers of two) = %v %v %v, want 2 8 32", q1, q2, q3)
	}
}

func TestDigestSeesOrderAndBytes(t *testing.T) {
	digest := func(pairs ...any) state {
		d := newDigester()
		for i := 0; i < len(pairs); i += 2 {
			d.add(uint64(pairs[i].(int)), []byte(pairs[i+1].(string)))
		}
		return d.state()
	}
	base := digest(1, "a", 2, "b")
	if base != digest(1, "a", 2, "b") {
		t.Error("the same pairs digest differently")
	}
	if base.payload != 18 {
		t.Errorf("payload = %d, want 18", base.payload)
	}
	for name, other := range map[string]state{
		"swapped":     digest(2, "b", 1, "a"),
		"value moved": digest(1, "ab", 2, ""),
		"key changed": digest(1, "a", 3, "b"),
		"missing":     digest(1, "a"),
	} {
		if other.digest == base.digest {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

func TestGeneratedValuesCarryTheirVersion(t *testing.T) {
	v := make([]byte, kvValueBytes)
	fillValue(v, 42, 7)
	if ver, ok := valueVersion(v, 42); !ok || ver != 7 {
		t.Errorf("valueVersion = %d, %v; want 7, true", ver, ok)
	}
	if _, ok := valueVersion(v, 43); ok {
		t.Error("a value passed for another key's")
	}
	w := make([]byte, kvValueBytes)
	fillValue(w, 42, 8)
	if bytes.Equal(v[16:], w[16:]) {
		t.Error("two versions share their filler")
	}
	ks := newKeyStream(1, 2, 1000, zipfTheta)
	seen := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		k := ks.next()
		if k >= 1000 {
			t.Fatalf("key %d outside 0..999", k)
		}
		seen[k]++
	}
	if len(seen) < 500 || seen[ks.off] < 1000 {
		t.Errorf("not Zipf-shaped: %d distinct keys, hottest drawn %d times", len(seen), seen[ks.off])
	}
	if other := newKeyStream(2, 2, 1000, zipfTheta); other.off == ks.off {
		t.Error("another seed has the same hot key")
	}
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// BENCHMARK.json is written by hand from the tables in metrics.go; this
// keeps the two in step and checks the limits the contract puts on the file.
func TestContractMatchesCode(t *testing.T) {
	ct, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the contract, %d in the code", len(ct.EndToEnd), len(endToEnd))
	}
	for i, e := range ct.EndToEnd {
		if e.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, the code has %+v", i, e.metricDef, endToEnd[i])
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Bound > ct.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	if ct.EndToEnd[0].Name != "setup_s" {
		t.Errorf("the first end-to-end metric is %s, want setup_s", ct.EndToEnd[0].Name)
	}
	if len(ct.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the contract, %d in the code", len(ct.PerLayer), len(perLayer))
	}
	for i, d := range ct.PerLayer {
		if d != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, the code has %+v", i, d, perLayer[i])
		}
	}
	if len(ct.Workloads) < 2 || len(ct.Workloads) > 8 {
		t.Errorf("%d workloads", len(ct.Workloads))
	}
	for _, w := range ct.Workloads {
		if newWorkload(config{workload: w.Name}) == nil {
			t.Errorf("the contract names workload %s, the code has none", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or not one line", w.Name, len(w.Why))
		}
	}
	if ct.RunSeconds < 1 || ct.RunSeconds > 60 {
		t.Errorf("run_seconds %d", ct.RunSeconds)
	}
	if len(ct.Paths) != 1 || ct.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", ct.Paths)
	}
}

func TestWriteResult(t *testing.T) {
	defs := []metricDef{{"setup_s", "s", "lower"}, {"ops_per_s", "1/s", "higher"}}
	var out bytes.Buffer
	if err := writeResult(&out, defs, metrics{"setup_s": 1.25, "ops_per_s": 2000.5, "unlisted": 1}, 1000, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not one JSON object: %v", err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("keys %v", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 1000 || len(res.Metrics) != 2 ||
		res.Metrics["setup_s"] != (metricValue{1.25, "s"}) || res.Metrics["ops_per_s"] != (metricValue{2000.5, "1/s"}) {
		t.Errorf("result %+v", res)
	}
	if !strings.Contains(out.String(), "setup_s") || !strings.Contains(out.String(), "ops attempted") {
		t.Errorf("the metrics are not printed by name:\n%s", out.String())
	}
	if err := writeResult(&out, defs, metrics{"setup_s": 1}, 1, 0); err == nil {
		t.Error("a metric that was not measured passed for a number")
	}
	out.Reset()
	if err := writeResult(&out, defs, metrics{"setup_s": 1, "ops_per_s": 1}, 10, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), `"failed":3`) {
		t.Errorf("failed operations are not reported:\n%s", out.String())
	}
}

var workloadNames = []string{"tpcc_txn", "store_zipf_f80", "kv_mixed_spill", "kv_read_fit"}

// Every workload runs end to end at smoke size, untraced and traced: no
// operation or check fails and every metric of the contract has a number.
func TestSmokeRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			c := config{workload: name, seed: 7, seconds: 1, smoke: true, traced: traced, dir: t.TempDir()}
			m, attempted, failed, err := execute(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if failed != 0 || attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, failed, attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := writeResult(&out, defs, m, attempted, failed); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			if !traced {
				for _, d := range endToEnd {
					if m[d.Name] <= 0 {
						t.Errorf("%s: %s = %v, and an end-to-end metric is never 0", name, d.Name, m[d.Name])
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(c.dir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", name, err)
			}
		}
	}
}

// image runs a workload at smoke size and returns it with a copy of its
// directory and the live state the copy must reopen to.
func image(t *testing.T, name string) (workload, string, state) {
	t.Helper()
	dir := t.TempDir()
	w := newWorkload(config{workload: name, seed: 3, seconds: 1, smoke: true})
	if _, _, err := w.load(filepath.Join(dir, "data")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.close() })
	if err := w.warm(); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	w.run(rec)
	if err := waitCleanerIdle(w); err != nil {
		t.Fatal(err)
	}
	live := w.check(rec)
	if !w.killSafe() {
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}
	if rec.failed != 0 {
		t.Fatalf("%d operations failed before the image was taken", rec.failed)
	}
	if err := copyDir(filepath.Join(dir, "data"), filepath.Join(dir, "image")); err != nil {
		t.Fatal(err)
	}
	return w, filepath.Join(dir, "image"), live
}

func filesOf(t *testing.T, dir, pattern string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(files) == 0 {
		t.Fatalf("no %s in %s (%v)", pattern, dir, err)
	}
	sort.Strings(files)
	return files
}

// The image check must fail loudly on a damaged image, and pass on the
// undamaged one it is compared with.
func TestDamagedImagesFail(t *testing.T) {
	t.Run("tpcc_txn without its newest WAL generation", func(t *testing.T) {
		w, img, live := image(t, "tpcc_txn")
		good := &recorder{}
		intact := img + "-intact"
		if err := copyDir(img, intact); err != nil {
			t.Fatal(err)
		}
		if _, replayed := w.reopen(intact, true, live, good); good.failed != 0 || replayed == 0 {
			t.Fatalf("the undamaged image: %d checks failed, %d transactions replayed (want 0 and some)", good.failed, replayed)
		}
		gens := filesOf(t, filepath.Join(img, "wal"), "*")
		if err := os.Remove(gens[len(gens)-1]); err != nil {
			t.Fatal(err)
		}
		bad := &recorder{}
		w.reopen(img, true, live, bad)
		if bad.failed == 0 {
			t.Error("an image missing acknowledged transactions passed the check")
		}
	})
	t.Run("store_zipf_f80 with zeroed segments", func(t *testing.T) {
		w, img, live := image(t, "store_zipf_f80")
		good := &recorder{}
		intact := img + "-intact"
		if err := copyDir(img, intact); err != nil {
			t.Fatal(err)
		}
		if w.reopen(intact, true, live, good); good.failed != 0 {
			t.Fatalf("the undamaged image: %d checks failed", good.failed)
		}
		// Every second segment: at fill 0.75 that is certain to hold live pages.
		for i, seg := range filesOf(t, img, "*.seg") {
			if i%2 == 1 {
				continue
			}
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, make([]byte, info.Size()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		bad := &recorder{}
		w.reopen(img, true, live, bad)
		if bad.failed == 0 {
			t.Error("an image with zeroed live pages passed the check")
		}
	})
}
