// Command bench is the repository's benchmark: five workloads over the
// BRACE engines, each reporting end-to-end metrics (untraced) and
// per-layer metrics (traced), with every run's final state checked bit
// for bit against a reference engine. BENCHMARK.json at the repository
// root names the workloads and metrics; README.md in this directory
// explains them.
//
//	bench -workload seq-fish -seed 1 -seconds 10 -trace 0   one run, result on the last line
//	bench                                                   every workload, untraced then traced
//	bench -repeat-check                                     two full sets, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is where and how a report was produced.
type environment struct {
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CPU       string  `json:"cpu"`
	NumCPU    int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Scale     float64 `json:"scale"`
	Epoch     int     `json:"epoch_ticks"`
	Warm      int     `json:"warmup_epochs"`
}

func environmentOf(opt options) environment {
	env := environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown",
		Seed: opt.seed, Seconds: opt.seconds, Scale: opt.scale,
		Epoch: epochTicks, Warm: warmEpochs,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// cpuModel names the processor where the platform says (Linux only).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// report is the full-mode document printed on standard output.
type report struct {
	Env  environment  `json:"env"`
	Runs []*runOutput `json:"runs"`
}

func main() { os.Exit(run()) }

func run() int {
	var opt options
	one := flag.String("workload", "", "run this one workload and end on its result line (see -trace)")
	list := flag.String("workloads", "", "comma-separated workloads of a full or -repeat-check run (default: all)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated populations and of tick randomness")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measuring time of each run")
	flag.Float64Var(&opt.scale, "scale", 1, "work multiplier: ticks per lap and, below 1, derived seeds per round; a population's size never scales")
	flag.StringVar(&opt.traceDir, "trace-dir", ".bench_build/trace", "directory the traced runs write Chrome trace-event JSON to")
	traced := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	repeat := flag.Bool("repeat-check", false, "run two full sets in alternated order and fail unless they agree")
	flag.Parse()
	if flag.NArg() > 0 || opt.seconds <= 0 || opt.scale <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		return 2
	}
	env := environmentOf(opt)
	printEnvironment(os.Stderr, env)

	if *one != "" {
		w, ok := lookupWorkload(*one)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *one)
			return 2
		}
		out, err := runWorkload(w, opt, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printRun(os.Stderr, out)
		line, err := json.Marshal(out.Result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
		if !out.Result.Correct {
			return 1
		}
		return 0
	}

	set := workloads
	if *list != "" {
		set = nil
		for _, name := range strings.Split(*list, ",") {
			w, ok := lookupWorkload(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			set = append(set, w)
		}
	}
	first, err := runSet(set, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	if *repeat {
		reversed := make([]workload, len(set))
		for i, w := range set {
			reversed[len(set)-1-i] = w
		}
		second, err := runSet(reversed, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !repeatCheck(os.Stderr, first, second) {
			code = 1
		}
	}
	doc, err := json.MarshalIndent(report{Env: env, Runs: first}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(doc))
	for _, out := range first {
		if !out.Result.Correct {
			code = 1
		}
	}
	return code
}

// runSet measures every workload of the set untraced, then traced.
func runSet(set []workload, opt options) ([]*runOutput, error) {
	var outs []*runOutput
	for _, traced := range []bool{false, true} {
		for _, w := range set {
			out, err := runWorkload(w, opt, traced)
			if err != nil {
				return nil, err
			}
			printRun(os.Stderr, out)
			outs = append(outs, out)
		}
	}
	return outs, nil
}
