// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (uniform fixpoint vs simulation), Table 2 (hot/cold
// minimum cost), Figure 3 (MDC breakdown), Figure 4 (write buffer sweep),
// Figure 5a/b/c (algorithm comparison across fill factors) and Figure 6
// (TPC-C trace replay). The cmd/lsbench tool and the repository's root
// benchmarks both drive this package, so the numbers in README.md ("Paper vs
// measured") are reproducible from either entry point. One live-engine run,
// TPCCDurableAt (TPC-C on pagedb), compares the engine with the simulator. It
// reports write amplification and cleaning, not speed; engine performance is
// measured by the bench/ module alone.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// Scale selects the simulation geometry. The paper's absolute store size
// does not affect write amplification (its footnote 2); what must scale
// together are the cleaning reserve and batch relative to the slack space,
// which all presets keep at paper-like proportions.
type Scale int

// Scales: Small for tests/benches and README.md's "Paper vs measured"
// tables, Medium for longer lsbench runs, Paper for the full 100 GB / 2
// MB-segment geometry.
const (
	ScaleSmall Scale = iota
	ScaleMedium
	ScalePaper
)

// ParseScale converts a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("unknown scale %q (small, medium, paper)", s)
}

func (s Scale) String() string {
	return [...]string{"small", "medium", "paper"}[s]
}

// SimConfig returns the simulator geometry for a fill factor.
func (s Scale) SimConfig(f float64) sim.Config {
	switch s {
	case ScaleSmall:
		return sim.Config{SegmentPages: 32, NumSegments: 1024, FillFactor: f,
			FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 8}
	case ScalePaper:
		return sim.Config{SegmentPages: 512, NumSegments: 51200, FillFactor: f,
			FreeLowWater: 32, CleanBatch: 64, WriteBufferSegs: 16}
	default:
		return sim.Config{SegmentPages: 64, NumSegments: 1024, FillFactor: f,
			FreeLowWater: 4, CleanBatch: 8, WriteBufferSegs: 8}
	}
}

// Updates returns the update-stream multiple (fraction of it is warmup).
func (s Scale) Updates() sim.RunOptions {
	switch s {
	case ScaleSmall:
		return sim.RunOptions{UpdateMultiple: 16, WarmupFraction: 0.5}
	case ScalePaper:
		return sim.RunOptions{UpdateMultiple: 100, WarmupFraction: 0.5}
	default:
		return sim.RunOptions{UpdateMultiple: 30, WarmupFraction: 0.5}
	}
}

// Seed fixes all experiment workloads.
const Seed = 42

// Table is a rendered experiment result.
type Table struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
}

// Markdown renders the table as GitHub markdown.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n%s\n\n", t.Name, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
}

// CSV renders the table as CSV.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// run executes one simulation, panicking on configuration errors (the
// presets are statically valid).
func run(cfg sim.Config, alg core.Algorithm, gen workload.Generator, opts sim.RunOptions) sim.Result {
	res, err := sim.Run(cfg, alg, gen, opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s: %v", alg.Name, gen.Name(), err))
	}
	return res
}

// progress logs a line if w is non-nil.
func progress(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// Table1 reproduces paper Table 1: the analytic fixpoint E(F) with its
// derived columns, against the simulated emptiness-at-cleaning of age-based
// cleaning and MDC-opt under a uniform distribution (the paper's MDC-opt
// column and its §8.1 agreement claim). The full paper F range runs down to
// 0.20; fills may narrow it.
func Table1(scale Scale, fills []float64, log io.Writer) *Table {
	if fills == nil {
		fills = []float64{0.9, 0.85, 0.8, 0.75, 0.7, 0.6, 0.5}
	}
	t := &Table{
		Name:   "table1",
		Title:  "Table 1: fill factor vs segment emptiness when cleaned (uniform updates)",
		Header: []string{"F", "1-F", "E (analysis)", "E (sim age)", "E (sim MDC-opt)", "Cost 2/E", "R", "Wamp"},
	}
	for _, f := range fills {
		e := analysis.FixpointE(f)
		cfg := scale.SimConfig(f)
		age := run(cfg, core.Age(), workload.NewUniform(cfg.UserPages(), Seed), scale.Updates())
		opt := run(cfg, core.MDCOpt(), workload.NewUniform(cfg.UserPages(), Seed), scale.Updates())
		progress(log, "table1 F=%.3f: analysis E=%.4f, age E=%.4f, MDC-opt E=%.4f", f, e, age.MeanEAtClean, opt.MeanEAtClean)
		t.Rows = append(t.Rows, []string{
			f3(f), f3(1 - f), f3(e), f3(age.MeanEAtClean), f3(opt.MeanEAtClean),
			f2(analysis.CostSeg(e)), f2(analysis.RRatio(f)), f2(analysis.Wamp(e)),
		})
	}
	return t
}

// Table2 reproduces paper Table 2 at F=0.8: the analytic minimum cost of
// managing hot and cold data separately for the m:1-m skews, the 60%/40%
// slack splits, and the simulated MDC-opt cost (2/E at cleaning).
func Table2(scale Scale, log io.Writer) *Table {
	t := &Table{
		Name:   "table2",
		Title:  "Table 2: minimum cost when managing hot and cold data separately (F=0.8)",
		Header: []string{"Cold-Hot", "MinCost", "Hot:60%", "Hot:40%", "MDC-opt (sim)"},
	}
	const f = 0.8
	for _, row := range analysis.Table2(f, nil) {
		cfg := scale.SimConfig(f)
		var res sim.Result
		if row.M == 0.5 {
			res = run(cfg, core.MDCOpt(), workload.NewUniform(cfg.UserPages(), Seed), scale.Updates())
		} else {
			res = run(cfg, core.MDCOpt(), workload.NewSkew(cfg.UserPages(), row.M, Seed), scale.Updates())
		}
		progress(log, "table2 %d-%d: analytic MinCost=%.3f, sim MDC-opt cost=%.3f",
			int(row.M*100), int(100-row.M*100), row.MinCost, res.CostSeg)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d:%d", int(row.M*100), int(100-row.M*100)),
			f2(row.MinCost), f2(row.Hot60), f2(row.Hot40), f2(res.CostSeg),
		})
	}
	return t
}

// Fig3 reproduces Figure 3: write amplification of the MDC breakdown
// variants (greedy, MDC-no-sep-user-GC, MDC-no-sep-user, MDC, MDC-opt) and
// the analytic optimum across hot/cold skews at F=0.8.
func Fig3(scale Scale, log io.Writer) *Table {
	t := &Table{
		Name:   "fig3",
		Title:  "Figure 3: breakdown analysis on hot-cold distributions (F=0.8)",
		Header: []string{"skew"},
	}
	algs := core.Figure3Set()
	for _, a := range algs {
		t.Header = append(t.Header, a.Name)
	}
	t.Header = append(t.Header, "opt (analysis)")
	const f = 0.8
	for _, m := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		row := []string{fmt.Sprintf("%d-%d", int(m*100), int(100-m*100))}
		for _, a := range algs {
			cfg := scale.SimConfig(f)
			var gen workload.Generator
			if m == 0.5 {
				gen = workload.NewUniform(cfg.UserPages(), Seed)
			} else {
				gen = workload.NewSkew(cfg.UserPages(), m, Seed)
			}
			res := run(cfg, a, gen, scale.Updates())
			progress(log, "fig3 %s %s: Wamp=%.3f", row[0], a.Name, res.Wamp)
			row = append(row, f3(res.Wamp))
		}
		var opt float64
		if m == 0.5 {
			opt = analysis.Wamp(analysis.FixpointE(f))
		} else {
			opt = analysis.WampFromCost(analysis.HotColdCost(f, m, 0.5))
		}
		row = append(row, f3(opt))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig4 reproduces Figure 4: MDC write amplification vs the user write
// buffer size under the 80-20 Zipfian distribution (θ=0.99) at F=0.8.
func Fig4(scale Scale, log io.Writer) *Table {
	t := &Table{
		Name:   "fig4",
		Title:  "Figure 4: cleaning impact of the sort buffer size (MDC, Zipf 0.99, F=0.8)",
		Header: []string{"buffer (segments)", "Wamp", "Wamp (physical)", "absorbed fraction"},
	}
	for _, w := range []int{0, 1, 4, 16, 64, 256} {
		cfg := scale.SimConfig(0.8)
		cfg.WriteBufferSegs = w
		gen := workload.NewZipf(cfg.UserPages(), 0.99, Seed)
		res := run(cfg, core.MDC(), gen, scale.Updates())
		progress(log, "fig4 W=%d: Wamp=%.3f", w, res.Wamp)
		absorbed := 0.0
		if res.LogicalUpdates > 0 {
			absorbed = float64(res.AbsorbedUpdates) / float64(res.LogicalUpdates)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w), f3(res.Wamp), f3(res.WampPhysical), f3(absorbed),
		})
	}
	return t
}

// Fig5Dist identifies the three synthetic distributions of Figure 5.
type Fig5Dist string

// The Figure 5 panels.
const (
	Fig5Uniform Fig5Dist = "uniform"
	Fig5Zipf99  Fig5Dist = "zipf-0.99"
	Fig5Zipf135 Fig5Dist = "zipf-1.35"
)

func (d Fig5Dist) generator(pages int) workload.Generator {
	switch d {
	case Fig5Uniform:
		return workload.NewUniform(pages, Seed)
	case Fig5Zipf99:
		return workload.NewZipf(pages, 0.99, Seed)
	case Fig5Zipf135:
		return workload.NewZipf(pages, 1.35, Seed)
	}
	panic("unknown distribution " + string(d))
}

// Fig5 reproduces one panel of Figure 5: the seven algorithms across fill
// factors under a synthetic distribution.
func Fig5(scale Scale, dist Fig5Dist, log io.Writer) *Table {
	panel := map[Fig5Dist]string{
		Fig5Uniform: "a (uniform)", Fig5Zipf99: "b (80-20 Zipfian)", Fig5Zipf135: "c (90-10 Zipfian)",
	}[dist]
	t := &Table{
		Name:   "fig5-" + string(dist),
		Title:  fmt.Sprintf("Figure 5%s: write amplification vs fill factor", panel),
		Header: []string{"F"},
	}
	algs := core.Figure5Set()
	for _, a := range algs {
		t.Header = append(t.Header, a.Name)
	}
	for _, f := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		row := []string{f2(f)}
		for _, a := range algs {
			cfg := scale.SimConfig(f)
			res := run(cfg, a, dist.generator(cfg.UserPages()), scale.Updates())
			progress(log, "fig5 %s F=%.2f %s: Wamp=%.3f", dist, f, a.Name, res.Wamp)
			row = append(row, f3(res.Wamp))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TPCCTrace generates the Figure 6 input trace: a scaled TPC-C run over the
// B+-tree/buffer-pool engine (README.md, "The TPC-C substitution").
func TPCCTrace(scale Scale, log io.Writer) *tpcc.Trace {
	cfg := tpcc.Config{Seed: Seed}
	txs := 40000
	if scale == ScaleSmall {
		cfg.Warehouses = 2
		cfg.CustomersPerDistrict = 150
		cfg.Items = 4000
		cfg.InitialOrdersPerDistrict = 150
		txs = 15000
	}
	if scale == ScalePaper {
		cfg.Warehouses = 16
		cfg.CustomersPerDistrict = 600
		cfg.Items = 20000
		cfg.InitialOrdersPerDistrict = 600
		txs = 200000
	}
	e := tpcc.NewEngine(cfg)
	e.Run(txs)
	tr := e.Trace()
	st := e.Stats()
	progress(log, "tpcc: %d tx, universe=%d pages, preload=%d, %d trace writes, cache hit %.3f",
		txs, tr.Universe, tr.Preload, len(tr.Writes), st.Pool.HitRatio())
	return tr
}

// Fig6At runs a single Figure 6 cell — one algorithm replaying the trace at
// one fill factor — and returns its write amplification. The store capacity
// is derived from the trace's final page universe so that the run ends at
// fill factor f, as in §6.3 where TPC-C grows the database into the target
// fill.
func Fig6At(scale Scale, tr *tpcc.Trace, f float64, alg core.Algorithm) float64 {
	segPages := scale.SimConfig(0.8).SegmentPages
	numSegs := int(float64(tr.Universe)/(f*float64(segPages))) + 1
	base := scale.SimConfig(f)
	cfg := sim.Config{
		SegmentPages: segPages, NumSegments: numSegs,
		FillFactor:      float64(tr.Universe) / float64(numSegs*segPages),
		FreeLowWater:    base.FreeLowWater,
		CleanBatch:      base.CleanBatch,
		WriteBufferSegs: base.WriteBufferSegs,
	}
	gen := workload.NewReplay("tpcc", tr.Writes, tr.Universe, tr.Preload, alg.Exact)
	return run(cfg, alg, gen, sim.RunOptions{}).Wamp
}

// Fig6 reproduces Figure 6: the seven algorithms replaying the TPC-C trace
// at fill factors 0.5-0.8, one Fig6At cell each.
func Fig6(scale Scale, log io.Writer) *Table {
	tr := TPCCTrace(scale, log)
	t := &Table{
		Name:   "fig6",
		Title:  "Figure 6: write amplification on the TPC-C trace",
		Header: []string{"F"},
	}
	algs := core.Figure5Set()
	for _, a := range algs {
		t.Header = append(t.Header, a.Name)
	}
	for _, f := range []float64{0.5, 0.6, 0.7, 0.8} {
		row := []string{f2(f)}
		for _, a := range algs {
			wamp := Fig6At(scale, tr, f, a)
			progress(log, "fig6 F=%.2f %s: Wamp=%.3f", f, a.Name, wamp)
			row = append(row, f3(wamp))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// All runs every experiment at a scale, in paper order.
func All(scale Scale, log io.Writer) []*Table {
	tables := []*Table{
		Table1(scale, nil, log),
		Table2(scale, log),
		Fig3(scale, log),
		Fig4(scale, log),
		Fig5(scale, Fig5Uniform, log),
		Fig5(scale, Fig5Zipf99, log),
		Fig5(scale, Fig5Zipf135, log),
	}
	tables = append(tables, Fig6(scale, log))
	return tables
}
