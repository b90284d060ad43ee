package main

import (
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/service"
)

// startService brings up a bracesimd-equivalent HTTP service over an
// in-process worker fleet.
func startService(t *testing.T, workers int) string {
	t.Helper()
	var addrs []string
	for i := 0; i < workers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		addrs = append(addrs, lis.Addr().String())
		go distrib.ServeWith(lis, distrib.ServeOptions{})
	}
	m, err := service.NewManager(service.Config{WorkerAddrs: addrs, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := httptest.NewServer(service.Handler(m))
	t.Cleanup(srv.Close)
	return srv.URL
}

// -submit hands the run to a service and reports the accepted id plus the
// status/watch URLs.
func TestSubmitMode(t *testing.T) {
	base := startService(t, 2)
	code, out, errOut := runCLI(t,
		"-submit", base, "-model", "epidemic", "-agents", "80", "-ticks", "10", "-workers", "2", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "submitted run-") || !strings.Contains(out, "/v1/runs/") {
		t.Errorf("submission not reported:\n%s", out)
	}
	if !strings.Contains(out, "state=running") {
		t.Errorf("accepted state missing:\n%s", out)
	}
}

// Server-side rejections surface as CLI failures, not silent exits.
func TestSubmitModeServerRejection(t *testing.T) {
	base := startService(t, 2)
	code, _, errOut := runCLI(t, "-submit", base, "-model", "epidemic", "-ticks", "0")
	if code != 1 || !strings.Contains(errOut, "ticks") {
		t.Errorf("invalid spec: exit=%d stderr:\n%s", code, errOut)
	}
	code, _, errOut = runCLI(t, "-submit", "http://127.0.0.1:1", "-model", "epidemic", "-ticks", "5")
	if code != 1 || !strings.Contains(errOut, "bracesim:") {
		t.Errorf("unreachable service: exit=%d stderr:\n%s", code, errOut)
	}
}

func TestSubmitFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"with distribute", []string{"-submit", "http://x", "-distribute", "tcp", "-worker-addrs", "a"}, "mutually exclusive"},
		{"with script", []string{"-submit", "http://x", "-script", "s.brasil"}, "registry"},
		{"with vtime", []string{"-submit", "http://x", "-vtime"}, "real time"},
	} {
		code, _, errOut := runCLI(t, tc.args...)
		if code == 0 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%s: exit=%d stderr:\n%s", tc.name, code, errOut)
		}
	}
}
