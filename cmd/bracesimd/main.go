// Command bracesimd is the BRACE simulation service: a long-lived HTTP
// daemon that owns a fleet of bracesim-worker processes and multiplexes
// many concurrent simulations over it. Where bracesim -distribute tcp
// builds a cluster per invocation, bracesimd keeps the cluster resident —
// the same amortization the BRACE runtime applies to epochs, applied to
// whole runs.
//
// Usage:
//
//	bracesimd -listen 127.0.0.1:8080 -worker-addrs 127.0.0.1:7101,127.0.0.1:7102
//	bracesimd -listen 127.0.0.1:0 -local-workers 4   # self-contained: in-process fleet
//
//	bracesim -submit http://127.0.0.1:8080 -model fish -ticks 200
//	curl -s http://127.0.0.1:8080/v1/runs
//	curl -s http://127.0.0.1:8080/v1/runs/run-0001
//	curl -sN http://127.0.0.1:8080/v1/runs/run-0001/watch
//	curl -s -X DELETE http://127.0.0.1:8080/v1/runs/run-0001
//
// The daemon prints "listening on <addr>" once the API socket is bound.
// SIGTERM (and SIGINT) drain gracefully: the API stops accepting new
// work, every active run is canceled, and any -local-workers fleet drains
// its in-flight epoch barriers before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/service"
)

func main() {
	shutdown := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bracesimd: %v: shutting down\n", s)
		close(shutdown)
	}()
	os.Exit(run(os.Args[1:], shutdown, os.Stdout, os.Stderr))
}

// run is the testable CLI entry point; it returns the process exit code.
// Closing shutdown makes the daemon drain and exit.
func run(args []string, shutdown <-chan struct{}, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bracesimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8080", "address to serve the HTTP API on")
	workerAddrs := fs.String("worker-addrs", "", "comma-separated bracesim-worker addresses forming the fleet")
	localWorkers := fs.Int("local-workers", 0, "spin up this many in-process workers instead of -worker-addrs (self-contained service)")
	registryAddr := fs.String("registry", "", "listen address for worker registration (bracesim-worker -register); implied on a loopback ephemeral port by -local-workers")
	maxRuns := fs.Int("max-runs", 0, "max concurrently running simulations (0 = default 4); admitted runs beyond it queue")
	queueDepth := fs.Int("queue", 0, "max queued runs (0 = default 16); submissions beyond it are rejected")
	runWorkers := fs.Int("run-workers", 0, "default per-run worker budget when a spec omits one (0 = the whole fleet)")
	sessionsPer := fs.Int("sessions-per-worker", 0, "max concurrent run sessions multiplexed on each worker (0 = default 4)")
	keyframeEvery := fs.Int("keyframe-every", 0, fmt.Sprintf(
		"watch-stream keyframe cadence: a full snapshot every N frames (0 = default %d)", service.DefaultKeyframeEvery))
	var tun distrib.Tunables
	tun.Bind(fs, "per run: ")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	addrs := splitAddrs(*workerAddrs)
	if len(addrs) > 0 && *localWorkers > 0 {
		return fail(stderr, fmt.Errorf("-worker-addrs and -local-workers are mutually exclusive"))
	}
	if len(addrs) == 0 && *localWorkers <= 0 && *registryAddr == "" {
		return fail(stderr, fmt.Errorf("a fleet is required: -worker-addrs, -local-workers, or -registry"))
	}

	// The registry is how workers find the service (and vice versa):
	// external daemons dial it with -register, and the -local-workers
	// fleet announces itself through it too — one discovery path instead
	// of a static list. Workers registering later grow the fleet live.
	var reg *distrib.Registry
	if *registryAddr != "" || *localWorkers > 0 {
		bind := *registryAddr
		if bind == "" {
			bind = "127.0.0.1:0"
		}
		rlis, err := net.Listen("tcp", bind)
		if err != nil {
			return fail(stderr, err)
		}
		reg = distrib.NewRegistry(rlis)
		defer reg.Close()
		fmt.Fprintf(stdout, "registry on %s\n", reg.Addr())
	}

	// A -local-workers fleet lives inside the daemon process: each worker
	// is a distrib.ServeWith loop on a loopback listener, draining with
	// the daemon. Placement, wire protocol and recovery behave exactly as
	// with external daemons (short of surviving this process).
	var workerWG sync.WaitGroup
	drain := make(chan struct{})
	defer func() { close(drain); workerWG.Wait() }()
	for i := 0; i < *localWorkers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(stderr, err)
		}
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			if err := distrib.ServeWith(lis, distrib.ServeOptions{Log: stderr, Drain: drain, Register: reg.Addr()}); err != nil {
				fmt.Fprintln(stderr, "bracesimd: local worker:", err)
			}
		}()
	}
	if *localWorkers > 0 {
		// Gate on the fleet actually announcing itself — the same path an
		// external worker takes — so the manager below starts fully wired.
		local, err := reg.Await(*localWorkers, 30*time.Second)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "local fleet: %s\n", strings.Join(local, ","))
	}

	mgr, err := service.NewManager(service.Config{
		WorkerAddrs:       addrs,
		Registry:          reg,
		MaxRuns:           *maxRuns,
		QueueDepth:        *queueDepth,
		SessionsPerWorker: *sessionsPer,
		DefaultRunWorkers: *runWorkers,
		KeyframeEvery:     *keyframeEvery,
		Tunables:          tun,
		Log:               stderr,
	})
	if err != nil {
		return fail(stderr, err)
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(stderr, err)
	}
	srv := &http.Server{Handler: service.Handler(mgr)}
	fmt.Fprintf(stdout, "listening on %s\n", lis.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case err := <-serveErr:
		mgr.Close()
		return fail(stderr, err)
	case <-shutdown:
	}

	// Drain: cancel every run and wait for the coordinators (which ends
	// the runs' watch streams, releasing their handlers), then stop the
	// API with a bounded window for stragglers, then let the deferred
	// close drain any local workers' epoch barriers.
	mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
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
	fmt.Fprintln(stderr, "bracesimd:", err)
	return 1
}
