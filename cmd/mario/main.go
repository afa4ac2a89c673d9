// Command mario is the CLI front end of the pipeline optimizer: it searches
// for the best (scheme, pp, dp, micro-batch, checkpointing) configuration
// for a model and cluster (Equation 1), prints the tuning trace, visualises
// the winning schedule, and optionally executes it on the emulated cluster
// or exports the timeline.
//
// Usage:
//
//	mario -model GPT3-13B -devices 32 -gbs 128 -mem 40G [-scheme Auto]
//	      [-tp 1] [-workers 0] [-no-prune]
//	      [-run 3] [-viz] [-svg out.svg]
//	      [-trace out.json] [-trace-measured out.json] [-events out.jsonl]
//	      [-search-trace out.json] [-search-spans out.jsonl]
//	      [-search-trace-measured out.json] [-search-summary]
//	      [-stats] [-drift] [-faults <spec|file>] [-pprof cpu.out]
//	      [-remote http://host:8347]
//
// The -search-* flags trace the tuner search itself (as opposed to -trace,
// which exports the winning schedule's timeline): -search-trace writes the
// canonical Chrome trace of the search (structural, byte-identical across
// worker counts), -search-spans the canonical span JSONL, and
// -search-trace-measured the wall-clock Chrome trace of this particular
// run. -search-summary prints the per-phase self-time table.
//
// With -remote the search runs on a mariod planning server instead of in
// process: the flags are sent as a plan request, repeated invocations hit
// the server's plan cache, and everything downstream of the plan (-run,
// -viz, -drift, …) still executes locally. -pprof and the -search-* flags
// observe the local tuner only and are rejected together with -remote
// (remotely, ask mariod for ?trace=1 or /debug/flight).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"mario"
	"mario/internal/obs"
	"mario/internal/place"
	"mario/internal/serve"
	"mario/internal/serve/client"
	"mario/internal/telemetry"
	"mario/internal/tuner"
	"mario/internal/viz"
)

func main() {
	var (
		modelName = flag.String("model", "GPT3-1.6B", "model preset (GPT3-1.6B, GPT3-13B, LLaMA2-3B, LLaMA2-13B)")
		devices   = flag.Int("devices", 8, "total number of devices")
		gbs       = flag.Int("gbs", 128, "global batch size")
		mem       = flag.String("mem", "40G", "memory per device")
		schemeStr = flag.String("scheme", "Auto", "pipeline scheme: Auto, V/1F1B, X/Chimera, W/Interleave, GPipe, Z/ZB-H1, D/DualPipe-D")
		tp        = flag.Int("tp", 1, "tensor-parallel degree (held constant)")
		workers   = flag.Int("workers", 0, "concurrent tuner evaluations (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		noPrune   = flag.Bool("no-prune", false, "disable the tuner's bound and memory prunes (simulate every feasible configuration)")
		split     = flag.Bool("split", false, "also try ZB-H1 split-backward on checkpointed candidates")
		runIters  = flag.Int("run", 0, "execute the winning schedule for N iterations on the emulated cluster")
		showViz   = flag.Bool("viz", false, "print the winning schedule's timeline as ASCII")
		svgPath   = flag.String("svg", "", "write the winning timeline as SVG to this path")
		tracePath = flag.String("trace", "", "write the winning timeline as Chrome trace JSON to this path")
		emitPath  = flag.String("emit", "", "write the winning instruction-list schedule as JSON to this path")
		traceAll  = flag.Bool("full-trace", false, "print the full tuning trace")

		measuredPath = flag.String("trace-measured", "", "write the measured run's timeline as Chrome trace JSON to this path")
		eventsPath   = flag.String("events", "", "write the measured run's event stream as JSONL to this path")
		showStats    = flag.Bool("stats", false, "print per-device measured stats and tuner search counters")
		showDrift    = flag.Bool("drift", false, "print the predicted-vs-measured drift report")
		faultsArg    = flag.String("faults", "", "degrade the measured run under a fault plan: inline spec (\"slow:dev=1,factor=1.5; link:from=0,to=1,drop=0.05\") or JSON file path")
		speedsArg    = flag.String("device-speeds", "", "per-device relative compute speeds: full list (\"1,0.8,1,1\") or sparse dev=speed overrides (\"2=0.8\"); heterogeneous speeds open the partitioning/placement search")
		placementArg = flag.String("placement", "", "partitioning/placement search mode: auto (default), uniform, coopt")
		pprofPath    = flag.String("pprof", "", "write a CPU profile of the tuner search to this path")
		remoteAddr   = flag.String("remote", "", "plan on a mariod server at this base URL instead of in process")

		searchTracePath    = flag.String("search-trace", "", "write the canonical Chrome trace of the tuner search to this path (byte-identical across worker counts)")
		searchSpansPath    = flag.String("search-spans", "", "write the canonical span JSONL of the tuner search to this path")
		searchMeasuredPath = flag.String("search-trace-measured", "", "write the wall-clock Chrome trace of the tuner search to this path")
		searchSummary      = flag.Bool("search-summary", false, "print the search's per-phase self-time summary")
	)
	flag.Parse()

	if *remoteAddr != "" && *pprofPath != "" {
		fmt.Fprintln(os.Stderr, "mario: -pprof profiles the in-process search; it cannot be combined with -remote")
		os.Exit(2)
	}
	wantSearchTrace := *searchTracePath != "" || *searchSpansPath != "" || *searchMeasuredPath != "" || *searchSummary
	if *remoteAddr != "" && wantSearchTrace {
		fmt.Fprintln(os.Stderr, "mario: the -search-* flags trace the in-process search; with -remote ask the server for ?trace=1 or /debug/flight")
		os.Exit(2)
	}

	models := mario.Models()
	model, ok := models[*modelName]
	if !ok {
		fmt.Fprintf(os.Stderr, "mario: unknown model %q; available:", *modelName)
		for name := range models {
			fmt.Fprintf(os.Stderr, " %s", name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	deviceSpeeds, err := place.ParseSpeeds(*speedsArg, *devices)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mario: %v\n", err)
		os.Exit(2)
	}
	if _, err := place.ParseMode(*placementArg); err != nil {
		fmt.Fprintf(os.Stderr, "mario: %v\n", err)
		os.Exit(2)
	}

	var faults *mario.FaultPlan
	if *faultsArg != "" {
		var err error
		if faults, err = mario.ParseFaults(*faultsArg); err != nil {
			fmt.Fprintf(os.Stderr, "mario: %v\n", err)
			os.Exit(2)
		}
		// Validate device indices at parse time rather than letting the spec
		// fail deep inside the measured run: the cluster can never have more
		// devices than -devices declares.
		if err := faults.Validate(*devices); err != nil {
			fmt.Fprintf(os.Stderr, "mario: -faults: %v\n", err)
			os.Exit(2)
		}
	}

	wantObs := *measuredPath != "" || *eventsPath != "" || *showStats || *showDrift
	if wantObs && *runIters <= 0 {
		fmt.Fprintln(os.Stderr, "mario: -trace-measured/-events/-stats/-drift need a measured run; assuming -run 1")
		*runIters = 1
	}
	if faults != nil && *runIters <= 0 {
		fmt.Fprintln(os.Stderr, "mario: -faults needs a measured run; assuming -run 1")
		*runIters = 1
	}

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mario: pprof: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var plan *mario.Plan
	if *remoteAddr != "" {
		req := serve.PlanRequest{
			Model:         *modelName,
			Scheme:        *schemeStr,
			GlobalBatch:   *gbs,
			Devices:       *devices,
			Memory:        *mem,
			TP:            *tp,
			SplitBackward: *split,
			NoPrune:       *noPrune,
			Workers:       *workers,
			DeviceSpeeds:  deviceSpeeds,
			Placement:     *placementArg,
		}
		plan, err = remotePlan(*remoteAddr, req, *showStats)
	} else {
		conf := mario.Config{
			PipelineScheme:  *schemeStr,
			GlobalBatchSize: *gbs,
			NumDevices:      *devices,
			MemoryPerDevice: *mem,
			TP:              *tp,
			SplitBackward:   *split,
			Workers:         *workers,
			NoPrune:         *noPrune,
			DeviceSpeeds:    deviceSpeeds,
			Placement:       *placementArg,
		}
		var tracer *telemetry.Tracer
		if wantSearchTrace {
			// Fingerprint the search the same way mariod would, so span IDs
			// agree between local traces and the planning service.
			req := serve.PlanRequest{
				Model:         *modelName,
				Scheme:        *schemeStr,
				GlobalBatch:   *gbs,
				Devices:       *devices,
				Memory:        *mem,
				TP:            *tp,
				SplitBackward: *split,
				NoPrune:       *noPrune,
				DeviceSpeeds:  deviceSpeeds,
				Placement:     *placementArg,
			}
			reqModel, verr := req.Validate()
			if verr != nil {
				fmt.Fprintf(os.Stderr, "mario: %v\n", verr)
				os.Exit(2)
			}
			tracer = telemetry.New(req.Fingerprint(reqModel))
			conf.Tracer = tracer
		}
		if *showStats {
			conf.Progress = func(explored int, bestLabel string, bestThroughput float64) {
				fmt.Fprintf(os.Stderr, "\rtuner: explored %4d  best %-18s %10.2f samples/s", explored, bestLabel, bestThroughput)
			}
		}
		plan, err = mario.Optimize(conf, model)
		if conf.Progress != nil {
			fmt.Fprintln(os.Stderr)
		}
		if err == nil && tracer != nil {
			if terr := writeSearchTraces(tracer.Snapshot(), *searchTracePath, *searchSpansPath, *searchMeasuredPath, *searchSummary); terr != nil {
				fmt.Fprintf(os.Stderr, "mario: %v\n", terr)
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mario: %v\n", err)
		os.Exit(1)
	}

	best := plan.Best
	fmt.Printf("model %s on %d devices (gbs %d, mem %s, tp %d)\n", model.Name, *devices, *gbs, *mem, *tp)
	fmt.Printf("best configuration: %s  pp=%d dp=%d mbs=%d micros=%d ckpt=%v\n",
		best.Label(), best.PP, best.DP, best.MicroBatch, best.Micros, best.Ckpt)
	fmt.Printf("estimated throughput: %.2f samples/s\n", best.Throughput)
	if best.Result != nil {
		lo, hi := best.Result.MinMaxPeak()
		fmt.Printf("estimated peak memory: [%.2f, %.2f] GB\n", lo/(1<<30), hi/(1<<30))
	}
	if *showStats {
		st := plan.SearchStats
		fmt.Printf("tuner search: explored %d, OOM-rejected %d, pruned %d structural + %d by bound + %d by memory, best improved %d times\n",
			st.Explored, st.OOMRejected, st.Pruned, st.BoundPruned, st.MemPruned, st.Improved)
	}

	if *traceAll {
		fmt.Println("\ntuning trace:")
		for i, c := range plan.Trace {
			oom := ""
			if c.OOM {
				oom = " OOM"
			}
			fmt.Printf("  iter %3d %-18s %10.2f%s\n", i, c.Label(), c.Throughput, oom)
		}
		fmt.Println("\nranked:")
		for i, c := range tuner.Rank(plan.Trace) {
			if i >= 10 {
				break
			}
			fmt.Printf("  #%2d %-18s %10.2f\n", i+1, c.Label(), c.Throughput)
		}
	}

	if *showViz {
		fmt.Println()
		if err := mario.Visualize(os.Stdout, plan); err != nil {
			fmt.Fprintf(os.Stderr, "mario: %v\n", err)
			os.Exit(1)
		}
	}
	if *svgPath != "" && best.Result != nil {
		f, err := os.Create(*svgPath)
		if err == nil {
			err = viz.SVG(f, best.Result)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: writing SVG: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if *tracePath != "" && best.Result != nil {
		f, err := os.Create(*tracePath)
		if err == nil {
			err = viz.ChromeTrace(f, best.Result)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *tracePath)
	}

	if *emitPath != "" {
		f, err := os.Create(*emitPath)
		if err == nil {
			err = mario.SaveSchedule(f, best.Schedule)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: writing schedule: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *emitPath)
	}

	if *runIters > 0 {
		rep, err := mario.RunWithOptions(plan, *runIters, mario.RunOptions{CollectEvents: wantObs, Faults: faults})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nexecuted %d iterations on the emulated cluster:\n", *runIters)
		fmt.Printf("  measured iteration time: %.4f s\n", rep.IterTime)
		fmt.Printf("  measured throughput:     %.2f samples/s\n", rep.SamplesPerSec)
		fmt.Printf("  measured peak memory:    [%.2f, %.2f] GB\n", rep.PeakMemMin/(1<<30), rep.PeakMemMax/(1<<30))
		if rep.FaultPlan != "" {
			fmt.Printf("  injected faults (%s):    %d slowed instrs, %d dropped p2p attempts, %.4g s stalled, %d stall-absorbed watchdog firings\n",
				rep.FaultPlan, rep.FaultSlowed, rep.FaultDrops, rep.FaultStall, rep.StallResets)
		}

		if *measuredPath != "" {
			f, err := os.Create(*measuredPath)
			if err == nil {
				err = viz.ChromeTraceMeasured(f, rep.Events)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mario: writing measured trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *measuredPath)
		}
		if *eventsPath != "" {
			f, err := os.Create(*eventsPath)
			if err == nil {
				sink := obs.NewJSONL(f)
				for _, e := range rep.Events {
					sink.Emit(e)
				}
				err = sink.Flush()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mario: writing events: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *eventsPath)
		}
		if *showStats && rep.Stats != nil {
			fmt.Println("\nmeasured per-device stats:")
			fmt.Print(rep.Stats.Table())
		}
		if *showDrift {
			dr, err := mario.Drift(plan, rep)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mario: drift: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
			fmt.Print(dr.Format())
		}
	}
}

// writeSearchTraces exports the search trace in the requested forms and
// prints the per-phase summary when asked.
func writeSearchTraces(tr *telemetry.Trace, tracePath, spansPath, measuredPath string, summary bool) error {
	writeFile := func(path string, data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("writing search trace: %w", err)
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	if tracePath != "" {
		if err := writeFile(tracePath, tr.ChromeTrace()); err != nil {
			return err
		}
	}
	if spansPath != "" {
		if err := writeFile(spansPath, tr.JSONL()); err != nil {
			return err
		}
	}
	if measuredPath != "" {
		if err := writeFile(measuredPath, tr.ChromeTraceMeasured()); err != nil {
			return err
		}
	}
	if summary {
		fmt.Println("\nsearch phase summary (self time):")
		var total time.Duration
		for _, row := range tr.PhaseSummary() {
			total += row.Self
			fmt.Printf("  %-12s n=%-5d self=%v\n", row.Phase, row.Count, row.Self.Round(time.Microsecond))
		}
		fmt.Printf("  %-12s %8s total=%v\n", "", "", total.Round(time.Microsecond))
	}
	return nil
}

// remotePlan fetches the plan from a mariod server, streaming progress to
// stderr when showStats is set, and reports whether the server answered
// from its cache.
func remotePlan(addr string, req serve.PlanRequest, showStats bool) (*mario.Plan, error) {
	c := client.New(addr)
	ctx := context.Background()
	var resp *serve.PlanResponse
	var err error
	if showStats {
		resp, err = c.PlanStream(ctx, req, func(ev serve.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\rtuner: explored %4d  best %-18s %10.2f samples/s", ev.Explored, ev.Best, ev.BestThroughput)
		})
		fmt.Fprintln(os.Stderr)
	} else {
		resp, err = c.Plan(ctx, req)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case resp.Cached:
		fmt.Fprintf(os.Stderr, "mario: plan served from %s cache (%.12s…)\n", addr, resp.Fingerprint)
	case resp.Shared:
		fmt.Fprintf(os.Stderr, "mario: plan shared with an identical in-flight request on %s\n", addr)
	}
	return client.Decode(resp)
}
