// Command mtsim runs one trace-driven simulation: an application of the
// workload suite under a chosen placement algorithm on a multithreaded
// multiprocessor, and reports execution time, processor utilization and
// the cache-miss components.
//
// Usage:
//
//	mtsim -app LocusRoute -alg LOAD-BAL -procs 8
//	mtsim -app Water -alg SHARE-REFS -procs 4 -infinite
//
// Telemetry (see DESIGN.md §7):
//
//	mtsim -app MP3D -alg LOAD-BAL -timeline run.json    # Perfetto timeline
//	mtsim -app MP3D -alg LOAD-BAL -sample run.csv       # windowed time series
//	mtsim -app MP3D -alg LOAD-BAL -sparkline run.svg    # time-series sparklines
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// options carries every flag; run takes it whole so tests can exercise
// any combination without threading a dozen positional arguments.
type options struct {
	app, alg     string
	procs        int
	scale        float64
	seed         int64
	infinite     bool
	perProc      bool
	assoc        int
	contexts     int
	wruns        bool
	dynamic      string
	timeline     string
	sample       string
	sparkline    string
	sampleWindow uint64
	maxSteps     uint64
	verbose      bool
}

func main() {
	var o options
	flag.StringVar(&o.app, "app", "", "application name (see mttrace -list)")
	flag.StringVar(&o.alg, "alg", "LOAD-BAL", "placement algorithm (see mtplace -algs)")
	flag.IntVar(&o.procs, "procs", 4, "number of processors")
	flag.Float64Var(&o.scale, "scale", 1.0, "workload scale factor")
	flag.Int64Var(&o.seed, "seed", 1994, "generation / RANDOM seed")
	flag.BoolVar(&o.infinite, "infinite", false, "use the 8 MB 'infinite' cache of §4.3")
	flag.BoolVar(&o.perProc, "per-proc", false, "print per-processor statistics")
	flag.IntVar(&o.assoc, "assoc", 1, "cache set associativity (1 = the paper's direct-mapped)")
	flag.IntVar(&o.contexts, "contexts", 0, "hardware contexts per processor (0 = one per thread)")
	flag.BoolVar(&o.wruns, "writeruns", false, "measure write runs / migratory data (§4.2)")
	flag.StringVar(&o.dynamic, "dynamic", "", "use online self-scheduling instead of a static placement: fifo or longest-first")
	flag.StringVar(&o.timeline, "timeline", "", "write the run as Perfetto/Chrome trace-event JSON to this file")
	flag.StringVar(&o.sample, "sample", "", "write windowed time-series samples as CSV to this file")
	flag.StringVar(&o.sparkline, "sparkline", "", "write time-series sparklines as SVG to this file")
	flag.Uint64Var(&o.sampleWindow, "sample-window", 10000, "sampling window width in cycles for -sample/-sparkline")
	flag.Uint64Var(&o.maxSteps, "maxsteps", 0, "abort after this many simulation events (livelock watchdog, 0 = unbounded)")
	flag.BoolVar(&o.verbose, "v", false, "verbose diagnostics")
	flag.Parse()

	log := obs.NewLogger(os.Stderr, o.verbose)
	if err := run(o, os.Stdout, log); err != nil {
		os.Exit(obs.Fail(log, err, flag.Usage))
	}
}

func run(o options, out io.Writer, log *slog.Logger) error {
	if o.app == "" {
		return obs.Usagef("need -app")
	}
	if (o.sample != "" || o.sparkline != "") && o.sampleWindow == 0 {
		return obs.Usagef("-sample-window must be positive")
	}
	a, err := workload.ByName(o.app)
	if err != nil {
		return err
	}
	tr, err := a.Build(workload.Params{Scale: o.scale, Seed: o.seed})
	if err != nil {
		return err
	}
	log.Debug("trace built", "app", o.app, "threads", tr.NumThreads())
	cfg := sim.DefaultConfig(o.procs)
	cfg.CacheSize = a.CacheSize
	cfg.Associativity = o.assoc
	cfg.MaxContexts = o.contexts
	cfg.TrackWriteRuns = o.wruns
	if o.infinite {
		cfg.CacheSize = sim.InfiniteCacheSize
	}

	// Telemetry consumers, combined into one probe; nil when no telemetry
	// flag is set, so the plain path stays probe-free.
	var tracer *obs.Tracer
	var sampler *obs.Sampler
	var probes []obs.Probe
	if o.timeline != "" {
		tracer = obs.NewTracer()
		probes = append(probes, tracer)
	}
	if o.sample != "" || o.sparkline != "" {
		sampler = obs.NewSampler(o.sampleWindow)
		probes = append(probes, sampler)
	}
	probe := obs.Multi(probes...)

	// The zero guard is a plain unbounded run; -maxsteps arms it. A nil
	// placement selects dynamic self-scheduling.
	spec := sim.Spec{Config: cfg, Probe: probe, Guard: sim.Guard{MaxSteps: o.maxSteps}}
	if o.dynamic != "" {
		switch o.dynamic {
		case "fifo":
		case "longest-first":
			spec.Schedule = sim.LongestFirst
		default:
			return obs.Usagef("unknown -dynamic policy %q (fifo or longest-first)", o.dynamic)
		}
	} else {
		pa, err := placement.ByName(o.alg)
		if err != nil {
			return err
		}
		if spec.Placement, err = pa.Place(analysis.Analyze(tr).Sharing(), o.procs, o.seed); err != nil {
			return err
		}
	}
	res, err := sim.Run(tr, spec)
	if err != nil {
		return err
	}
	alg := o.alg
	if spec.Placement == nil {
		alg = res.Algorithm
	}
	log.Debug("simulation complete", "exec_cycles", res.ExecTime)

	if tracer != nil {
		if err := writeFile(o.timeline, tracer.Export); err != nil {
			return err
		}
		log.Info("wrote timeline", "path", o.timeline, "events", tracer.Events(),
			"hint", "open in https://ui.perfetto.dev")
	}
	if sampler != nil {
		if o.sample != "" {
			if err := writeFile(o.sample, sampler.Table().WriteCSV); err != nil {
				return err
			}
			log.Info("wrote samples", "path", o.sample, "windows", len(sampler.Samples()))
		}
		if o.sparkline != "" {
			if err := writeFile(o.sparkline, sampler.TimeSeries().WriteSVG); err != nil {
				return err
			}
			log.Info("wrote sparklines", "path", o.sparkline)
		}
	}

	tot := res.Totals()
	fmt.Fprintf(out, "%s / %s / %d processors (%d KB cache)\n", o.app, alg, o.procs, cfg.CacheSize>>10)
	fmt.Fprintf(out, "execution time: %d cycles\n", res.ExecTime)
	fmt.Fprintf(out, "references: %d (%.1f%% shared), hit rate %.2f%%\n",
		tot.Refs, float64(tot.SharedRefs)/float64(tot.Refs)*100,
		float64(tot.Hits)/float64(tot.Refs)*100)
	fmt.Fprintf(out, "cycles: busy %d, switching %d, idle %d\n", tot.Busy, tot.Switch, tot.Idle)

	mt := &report.Table{
		Title:   "Cache miss components",
		Columns: []string{"Component", "Misses", "Per 1000 refs"},
	}
	kinds := []sim.MissKind{sim.Compulsory, sim.ConflictIntra, sim.ConflictInter, sim.InvalidationMiss}
	for _, k := range kinds {
		mt.AddRow(k.String(), fmt.Sprint(tot.Misses[k]),
			report.F(float64(tot.Misses[k])/float64(tot.Refs)*1000, 2))
	}
	mt.AddRow("total", fmt.Sprint(tot.TotalMisses()),
		report.F(float64(tot.TotalMisses())/float64(tot.Refs)*1000, 2))
	if err := mt.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "coherence: %d invalidations sent, %d upgrades, %d writebacks\n",
		tot.InvalidationsSent, tot.Upgrades, tot.Writebacks)
	if res.WriteRuns != nil {
		w := res.WriteRuns
		fmt.Fprintf(out, "write runs: %d written blocks, %d single-writer, %d migratory (%.1f%% of multi-writer), mean run %.1f\n",
			w.WrittenBlocks, w.SingleWriterBlocks, w.MigratoryBlocks, w.MigratoryPct(), w.MeanRunLength)
	}

	if o.perProc {
		pt := &report.Table{
			Title:   "Per-processor statistics",
			Columns: []string{"Proc", "Finish", "Busy", "Switch", "Idle", "Refs", "Misses"},
		}
		for i, p := range res.Procs {
			pt.AddRow(fmt.Sprint(i), fmt.Sprint(p.Finish), fmt.Sprint(p.Busy),
				fmt.Sprint(p.Switch), fmt.Sprint(p.Idle), fmt.Sprint(p.Refs),
				fmt.Sprint(p.TotalMisses()))
		}
		return pt.Render(out)
	}
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
