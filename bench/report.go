package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

func printEnvironment(w io.Writer, e environment) {
	fmt.Fprintf(w, "bench: %s/%s, %s, nproc=%d, %s, commit %s\n", e.GOOS, e.GOARCH, e.CPU, e.NumCPU, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "bench: seed=%d seconds=%g scale=%g epoch=%d ticks, %d warm-up epochs per lap\n", e.Seed, e.Seconds, e.Scale, e.Epoch, e.Warm)
}

// printRun writes one run's metrics, by catalogue order, and for a traced
// run the tables that relate them.
func printRun(w io.Writer, out *runOutput) {
	defs, kind := endToEndDefs, "end-to-end"
	if out.Traced {
		defs, kind = perLayerDefs, "per-layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed=%d GOMAXPROCS=%d: %d rounds of %d laps of %d ticks, %d timed epochs, %d set-ups, %.1fs\n",
		out.Workload, kind, out.Seed, out.Procs, out.Rounds, len(out.References), out.LapTicks, out.TimedEpochs, out.SetupSamples, out.Seconds)
	fmt.Fprintf(w, "   epochs attempted=%d failed=%d  digests=%v references=%v\n",
		out.Result.Attempted, out.Result.Failed, out.Digests, out.References)
	for _, p := range out.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	for _, d := range defs {
		m := out.Result.Metrics[d.Name]
		fmt.Fprintf(w, "   %-38s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	if !out.Traced {
		return
	}
	fmt.Fprintf(w, "   trace: %s\n", out.TraceFile)
	printSelfTimes(w, out)
	v := func(name string) float64 { return out.Result.Metrics[name].Value }
	if wl, _ := lookupWorkload(out.Workload); wl.sequential {
		// What a rebuild tick costs over a reuse tick, beside what the
		// spatial and agent layers say a rebuild should cost.
		observed := v("engine.tick_us_build") - v("engine.tick_us_reuse")
		explained := v("spatial.kd_build_us") + v("spatial.list_build_us") + v("agent.pack_morton_us")/64
		fmt.Fprintf(w, "   rebuild tick - reuse tick = %.1f us; kd_build + list_build + pack_morton/64 = %.1f us; unexplained %.1f us\n",
			observed, explained, observed-explained)
		return
	}
	printBSP(w, out, v)
}

// printSelfTimes lists where the traced run's wall time went, by span
// name: a span's duration minus what its child spans cover.
func printSelfTimes(w io.Writer, out *runOutput) {
	var names []string
	for name := range out.self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   self time by span:")
	for _, name := range names {
		fmt.Fprintf(w, " %s=%.0fms", name, millis(out.self[name]))
	}
	fmt.Fprintln(w)
}

// printBSP prints the bulk-synchronous cost model's account of one tick
// of a partitioned workload: w + h·g + l against the measured tick, with
// the remainder nobody owns. Reported, never gated.
func printBSP(w io.Writer, out *runOutput, v func(string) float64) {
	work := micros(out.seqTick) / float64(out.Procs) // w: sequential tick spread over the cores
	h := v("wire_bytes_per_tick")
	var g, l float64
	if payload := v("transport.frame_payload_bytes"); payload > 0 {
		// g per metered byte: codec time plus socket time of the probed
		// envelope frame, over the schema-sized payload it carries.
		wire := v("transport.frame_bytes") / v("transport.loopback_mb_per_s") // us
		g = (v("transport.frame_encode_us") + v("transport.frame_decode_us") + wire) / payload
		l = v("distrib.empty_tick_us")
	} else {
		l = v("mapreduce.empty_tick_us")
	}
	measured := micros(out.tick)
	predicted := work + h*g + l
	fmt.Fprintf(w, "   BSP: w=%.0f us (seq tick %.0f us / %d procs)  h=%.0f B  g=%.4f us/B  l=%.0f us  predicted=%.0f us  measured=%.0f us  unexplained=%.0f us\n",
		work, micros(out.seqTick), out.Procs, h, g, l, predicted, measured, measured-predicted)
}

// exactCount reports whether a per-layer metric is a count of the lap, not a
// timing: two runs of the same code at the same seed must agree on it
// exactly.
func exactCount(name string) bool {
	switch name {
	case "wire_bytes_per_tick", "mapreduce.local_bytes_per_tick",
		"spatial.candidates_per_agent", "spatial.candidate_hit_ratio",
		"partition.replicas_per_agent", "partition.imbalance",
		"engine.cache_reuse_ratio", "engine.candidates_per_agent_tick", "engine.delta_bytes_per_agent",
		"transport.frame_bytes", "transport.frame_payload_bytes", "transport.ckpt_frame_bytes":
		return true
	}
	return strings.HasPrefix(name, "distrib.") && !strings.HasSuffix(name, "_us") && !strings.HasSuffix(name, "_p90")
}

// repeatCheck compares two full sets of runs of the same code: counts
// must agree exactly and every end-to-end metric within its declared
// bound. It prints each metric's spread and reports whether all held.
func repeatCheck(w io.Writer, first, second []*runOutput) bool {
	find := func(outs []*runOutput, name string, traced bool) *runOutput {
		for _, o := range outs {
			if o.Workload == name && o.Traced == traced {
				return o
			}
		}
		return nil
	}
	ok := true
	fmt.Fprintf(w, "\n== repeat check: two sets, second in reverse order\n")
	for _, a := range first {
		b := find(second, a.Workload, a.Traced)
		defs := endToEndDefs
		if a.Traced {
			defs = perLayerDefs
		}
		for _, d := range defs {
			x, y := a.Result.Metrics[d.Name].Value, b.Result.Metrics[d.Name].Value
			spread := 0.0
			if x != y {
				spread = math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
			}
			verdict := "reported"
			switch {
			case a.Traced && exactCount(d.Name):
				verdict = "exact"
				if x != y {
					verdict = "COUNT DIFFERS"
					ok = false
				}
			case !a.Traced:
				verdict = fmt.Sprintf("within %.0f%%", 100*d.Bound)
				if spread > d.Bound {
					verdict = fmt.Sprintf("OUTSIDE %.0f%%", 100*d.Bound)
					ok = false
				}
			}
			fmt.Fprintf(w, "   %-18s %-38s %14.4f %14.4f  spread %6.2f%%  %s\n", a.Workload, d.Name, x, y, 100*spread, verdict)
		}
	}
	if ok {
		fmt.Fprintf(w, "repeat check: PASS\n")
	} else {
		fmt.Fprintf(w, "repeat check: FAIL\n")
	}
	return ok
}
