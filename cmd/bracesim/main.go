// Command bracesim runs a behavioral simulation on the BRACE engine from
// the command line: any scenario in the registry (bracesim -model list
// enumerates them) or a BRASIL script.
//
// Usage:
//
//	bracesim -model list
//	bracesim -model fish -agents 10000 -ticks 500 -workers 8 -lb
//	bracesim -model epidemic -agents 4000 -ticks 200 -workers 4
//	bracesim -script school.brasil -agents 5000 -ticks 200 -workers 4
//
// It prints a metrics summary (and per-epoch load statistics with -v).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/service"
	"github.com/bigreddata/brace/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point: it parses args, resolves the
// scenario through the registry, runs the simulation and writes the
// metrics summary to stdout. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("bracesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "fish", "scenario to run, or 'list' to enumerate the registry")
	script := fs.String("script", "", "path to a BRASIL script (overrides -model)")
	agents := fs.Int("agents", 0, "population size (0 = scenario default; traffic derives it from -extent)")
	extent := fs.Float64("extent", 0, "spatial size: segment length (traffic), world radius or room width (0 = scenario default)")
	ticks := fs.Int("ticks", 100, "ticks to simulate")
	workers := fs.Int("workers", 4, "worker nodes")
	seed := fs.Uint64("seed", 42, "simulation seed")
	var index brace.IndexKind
	fs.TextVar(&index, "index", brace.IndexKD, "spatial index: kd, scan")
	lb := fs.Bool("lb", false, "enable load balancing")
	ckptEpochs := fs.Int("ckpt-epochs", 0, "for -distribute and -submit runs: coordinated checkpoint every N epochs (0 = initial checkpoint only)")
	ckptFullEvery := fs.Int("ckpt-full-every", 0, fmt.Sprintf(
		"with -distribute: every Nth checkpoint is a full keyframe, the rest ship deltas (0 = default %d, 1 = always full)",
		distrib.DefaultCheckpointFullEvery))
	var tun distrib.Tunables
	tun.Bind(fs, "with -distribute: ")
	vt := fs.Bool("vtime", false, "enable virtual-time cluster accounting")
	seq := fs.Bool("seq", false, "use the sequential reference engine (single-threaded, one partition)")
	invert := fs.Bool("invert", false, "apply effect inversion to the BRASIL script")
	span := fs.Float64("span", 100, "initial placement span for BRASIL agents")
	distribute := fs.String("distribute", "", "run across real worker processes: 'tcp' (requires -worker-addrs or -registry)")
	submit := fs.String("submit", "", "submit the run to a bracesimd service at this base URL (e.g. http://127.0.0.1:8080) instead of running it here")
	workerAddrs := fs.String("worker-addrs", "", "comma-separated bracesim-worker addresses for -distribute tcp")
	registry := fs.String("registry", "", "with -distribute: listen here for worker registrations (bracesim-worker -register) instead of naming every address in -worker-addrs")
	awaitWorkers := fs.Int("await-workers", 0, "with -registry: wait for this many registered workers before starting the run")
	verbose := fs.Bool("v", false, "verbose output")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of this process to the file (with -distribute: the coordinator side)")
	memProfile := fs.String("memprofile", "", "write a heap profile of this process to the file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *ticks < 0 {
		return fail(stderr, fmt.Errorf("-ticks %d: the tick count cannot be negative", *ticks))
	}
	mode := modeLocal
	switch {
	case *submit != "" && *distribute != "":
		return fail(stderr, fmt.Errorf("-distribute and -submit are mutually exclusive"))
	case *submit != "":
		mode = modeSubmit
	case *distribute != "":
		mode = modeDistribute
	case *script != "":
		mode = modeScript
	}
	if err := checkFlagModes(fs, mode); err != nil {
		return fail(stderr, err)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(stderr, err)
	}
	defer func() {
		if err := stopProfiles(); err != nil && code == 0 {
			code = fail(stderr, err)
		}
	}()

	if *script == "" && *model == "list" {
		listScenarios(stdout)
		return 0
	}

	if *submit != "" {
		return submitRun(*submit, service.RunSpec{
			Scenario:            *model,
			Agents:              *agents,
			Extent:              *extent,
			Seed:                *seed,
			Ticks:               *ticks,
			Partitions:          *workers,
			Index:               index,
			LoadBalance:         *lb,
			CheckpointEpochs:    *ckptEpochs,
			CheckpointFullEvery: *ckptFullEvery,
		}, *verbose, stdout, stderr)
	}

	if *distribute != "" {
		if *distribute != "tcp" {
			return fail(stderr, fmt.Errorf("unknown -distribute mode %q (supported: tcp)", *distribute))
		}
		o := distrib.Options{
			Addrs:                 splitAddrs(*workerAddrs),
			Scenario:              *model,
			Agents:                *agents,
			Extent:                *extent,
			Seed:                  *seed,
			Partitions:            *workers,
			Ticks:                 *ticks,
			CheckpointEveryEpochs: *ckptEpochs,
			CheckpointFullEvery:   *ckptFullEvery,
			Tunables:              tun,
			Index:                 index,
			LoadBalance:           *lb,
		}
		if *registry != "" {
			rlis, err := net.Listen("tcp", *registry)
			if err != nil {
				return fail(stderr, err)
			}
			reg := distrib.NewRegistry(rlis)
			defer reg.Close()
			o.Registry = reg
			// Printed before any waiting so operators (and the process
			// tests) can point workers' -register here.
			fmt.Fprintf(stdout, "registry on %s\n", reg.Addr())
			if *awaitWorkers > 0 {
				addrs, err := reg.Await(*awaitWorkers, 60*time.Second)
				if err != nil {
					return fail(stderr, err)
				}
				o.Addrs = append(o.Addrs, addrs...)
			}
		} else if *awaitWorkers > 0 {
			return fail(stderr, fmt.Errorf("-await-workers requires -registry"))
		}
		if len(o.Addrs) == 0 {
			return fail(stderr, fmt.Errorf("-distribute tcp needs workers: -worker-addrs, or -registry with -await-workers"))
		}
		if *verbose {
			if sp, ok := brace.LookupScenario(*model); ok {
				fmt.Fprintf(stdout, "scenario %s: %s\n", sp.Name, sp.Description)
			}
			for i, addr := range o.Addrs {
				fmt.Fprintf(stdout, "worker %d @ %s: partitions %v\n",
					i, addr, transport.PartsOf(i, *workers, len(o.Addrs)))
			}
		}
		res, err := distrib.Run(o)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "distributed ticks=%d agents=%d procs=%d partitions=%d net=%dB (%d msgs) local=%dB rebalances=%d recoveries=%d stalls=%d ckpt=%dB (%d full / %d delta parts)\n",
			res.Ticks, len(res.Agents), res.Procs, *workers, res.Net.SentBytes, res.Net.SentMsgs, res.Net.LocalBytes,
			res.Rebalances, res.Recoveries, res.StallDrops, res.CheckpointBytes, res.CheckpointFullParts, res.CheckpointDeltaParts)
		if *verbose {
			for i, ep := range res.Epochs {
				fmt.Fprintf(stdout, "epoch %d: tick=%d rebalanced=%v\n", i+1, ep.Tick, ep.Rebalanced)
			}
		}
		return 0
	}

	cfg := brace.Config{
		Workers:     *workers,
		Seed:        *seed,
		LoadBalance: *lb,
		VirtualTime: *vt,
		Sequential:  *seq,
		Index:       index,
	}

	var m brace.Model
	var pop []*brace.Agent
	if *script != "" {
		src, err := os.ReadFile(*script)
		if err != nil {
			return fail(stderr, err)
		}
		prog, err := brace.CompileBRASIL(string(src), brace.CompileOptions{Invert: *invert})
		if err != nil {
			return fail(stderr, err)
		}
		if *verbose {
			fmt.Fprintf(stdout, "compiled %s: non-local=%v inverted=%v\n",
				*script, prog.HasNonLocalEffects(), prog.Inverted())
		}
		n := *agents
		if n <= 0 {
			n = 5000
		}
		m = prog
		pop = brace.SeedPopulation(prog.Schema(), n, *seed, *span)
	} else {
		sp, ok := brace.LookupScenario(*model)
		if !ok {
			return fail(stderr, brace.ErrUnknownScenario(*model))
		}
		var err error
		m, pop, err = sp.New(brace.ScenarioConfig{Agents: *agents, Seed: *seed, Extent: *extent})
		if err != nil {
			return fail(stderr, err)
		}
		if *verbose {
			fmt.Fprintf(stdout, "scenario %s: %s (%d agents)\n", sp.Name, sp.Description, len(pop))
		}
	}

	sim, err := brace.New(m, pop, cfg)
	if err != nil {
		return fail(stderr, err)
	}
	if err := sim.Run(*ticks); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, sim.Metrics())
	if *verbose {
		for i, ep := range sim.EpochStats() {
			fmt.Fprintf(stdout, "epoch %d: imbalance=%.2f rebalanced=%v\n", i+1, ep.Imbalance, ep.Rebalanced)
		}
	}
	return 0
}

// runMode is where a run executes; each flag applies to some of them.
type runMode uint

const (
	modeLocal      runMode = 1 << iota // in this process, a registry scenario
	modeScript                         // in this process, a BRASIL script
	modeDistribute                     // -distribute: this process coordinates workers
	modeSubmit                         // -submit: a bracesimd service runs it
)

// String names the modes the way the "only applies with" error needs them.
func (m runMode) String() string {
	var names []string
	if m&modeLocal != 0 {
		names = append(names, "an in-process run")
	} else if m&modeScript != 0 {
		names = append(names, "-script")
	}
	if m&modeDistribute != 0 {
		names = append(names, "-distribute")
	}
	if m&modeSubmit != 0 {
		names = append(names, "-submit")
	}
	return strings.Join(names, " or ")
}

// flagModes lists the flags that only some modes can honour, with the
// reason where the flag name does not carry it; a flag not listed applies
// everywhere. A set flag outside its modes is an error, never ignored.
var flagModes = map[string]struct {
	modes runMode
	why   string
}{
	"script": {modeScript, "workers and the service rebuild scenarios from the registry"},
	"invert": {modeScript, ""},
	"span":   {modeScript, ""},
	"vtime":  {modeLocal | modeScript, "distributed and service runs measure real time"},
	"seq":    {modeLocal | modeScript, "distributed and service runs are partitioned"},

	"ckpt-epochs":     {modeDistribute | modeSubmit, "an in-process run injects no failures, so it has nothing to checkpoint for"},
	"ckpt-full-every": {modeDistribute | modeSubmit, ""},
	"worker-addrs":    {modeDistribute, ""},
	"registry":        {modeDistribute, ""},
	"await-workers":   {modeDistribute, ""},
	"mesh":            {modeDistribute, ""},
	"heartbeat":       {modeDistribute, ""},
	"epoch-timeout":   {modeDistribute, ""},
	"dial-timeout":    {modeDistribute, ""},
}

// checkFlagModes rejects every flag the command line set that the run's
// mode cannot honour, naming each with the modes it applies to.
func checkFlagModes(fs *flag.FlagSet, mode runMode) error {
	var misused []string
	fs.Visit(func(f *flag.Flag) {
		fm, listed := flagModes[f.Name]
		if !listed || fm.modes&mode != 0 {
			return
		}
		msg := "-" + f.Name + " only applies with " + fm.modes.String()
		if fm.why != "" {
			msg += " (" + fm.why + ")"
		}
		misused = append(misused, msg)
	})
	if len(misused) == 0 {
		return nil
	}
	return errors.New(strings.Join(misused, "; "))
}

// startProfiles begins the CPU profile and returns the function that ends
// it and writes the heap profile; an empty path skips that profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the live-heap numbers the profile reports
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		return f.Close()
	}, nil
}

// listScenarios renders the registry as a table (the README's scenario
// table mirrors this output).
func listScenarios(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tEFFECTS\tAGENTS\tDESCRIPTION")
	for _, sp := range brace.Scenarios() {
		locality := "local"
		if !sp.LocalOnly {
			locality = "non-local"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", sp.Name, locality, sp.DefaultAgents, sp.Description)
	}
	tw.Flush()
}

// submitRun is the -submit client: it POSTs the spec to a bracesimd
// service and prints the accepted run's id and state. The run proceeds on
// the service; status and observations come from GET /v1/runs/{id} and
// /v1/runs/{id}/watch.
func submitRun(base string, spec service.RunSpec, verbose bool, stdout, stderr io.Writer) int {
	body, err := json.Marshal(spec)
	if err != nil {
		return fail(stderr, err)
	}
	url := strings.TrimSuffix(base, "/") + "/v1/runs"
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fail(stderr, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fail(stderr, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(raw))))
	}
	var st service.RunStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return fail(stderr, fmt.Errorf("bad service response: %w", err))
	}
	fmt.Fprintf(stdout, "submitted %s state=%s (status: %s/v1/runs/%s, watch: %s/v1/runs/%s/watch)\n",
		st.ID, st.State, base, st.ID, base, st.ID)
	if verbose {
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	return 0
}

// splitAddrs parses the -worker-addrs list, dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "bracesim:", err)
	return 1
}
