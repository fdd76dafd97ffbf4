package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

func readContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (its default "exclusive"
// method), because that is how the spread of a set of runs is judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		n := len(s)
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

// calibrate runs the workload n times, each in a process of its own as the
// driver does and each with the next seed, and prints for every metric its
// median, its quartiles, its interquartile range and its max-min, both as
// shares of the median, beside the bound BENCHMARK.json sets.
func calibrate(c config, n int, contractPath string) error {
	ct, err := readContract(contractPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, e := range ct.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		args := []string{"-workload", c.workload, "-seed", strconv.FormatInt(c.seed+int64(i), 10),
			"-seconds", strconv.Itoa(c.seconds), "-dir", c.dir}
		if c.traced {
			args = append(args, "-trace", "1")
		}
		if c.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d: last line: %w", i+1, err)
		}
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
		}
		fmt.Fprintf(os.Stderr, "run %d/%d done\n", i+1, n)
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	fmt.Printf("%s, %d runs, seeds %d..%d, %d s\n", c.workload, n, c.seed, c.seed+int64(n)-1, c.seconds)
	fmt.Printf("%-40s %12s %12s %12s %8s %8s %6s\n", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound")
	for _, d := range defs {
		v := values[d.Name]
		q1, q2, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		bound := ""
		if b, ok := bounds[d.Name]; ok {
			bound = strconv.FormatFloat(b, 'f', 2, 64)
		}
		fmt.Printf("%-40s %12.6g %12.6g %12.6g %8.4f %8.4f %6s\n", d.Name, q1, q2, q3,
			ratio(q3-q1, q2), ratio(hi-lo, q2), bound)
	}
	fmt.Println("values by run:")
	for _, d := range defs {
		fmt.Printf("%-40s", d.Name)
		for _, x := range values[d.Name] {
			fmt.Printf(" %.5g", x)
		}
		fmt.Println()
	}
	return nil
}
