package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with EMOGI_RUN_MAIN set, so tests can drive the real flag set and exit
// status.
func TestMain(m *testing.M) {
	if os.Getenv("EMOGI_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestMultiGPUIgnoredFlags: with -gpus > 1, every explicitly set flag the
// multi-GPU engine would ignore fails the run and is named in the error,
// while flags it honours (and the defaults of the ignored ones) run as
// before.
func TestMultiGPUIgnoredFlags(t *testing.T) {
	base := []string{"-graph", "GK", "-scale", "0.02", "-sources", "1"}
	for _, tc := range []struct {
		name    string
		args    []string
		ignored []string // nil: the run must succeed
	}{
		{name: "plain", args: []string{"-gpus", "2"}},
		{name: "honoured flags", args: []string{"-gpus", "2", "-algo", "sssp", "-elem", "4", "-reorder-window", "8"}},
		{name: "single gpu keeps every flag", args: []string{"-gpus", "1", "-transport", "static-uvm", "-paging", "gpu"}},
		{name: "tier flags", args: []string{"-gpus", "2", "-tiers", "3tier-cxl", "-placement", "cxl"},
			ignored: []string{"-tiers", "-placement"}},
		{name: "found command", args: []string{"-gpus", "2", "-algo", "bfs", "-tiers", "3tier-cxl", "-placement", "cxl",
			"-transport", "static-uvm", "-paging", "gpu"},
			ignored: []string{"-transport", "-tiers", "-paging", "-placement"}},
		{name: "default value set explicitly", args: []string{"-gpus", "3", "-transport", "static-zc"},
			ignored: []string{"-transport"}},
		{name: "kernel flags", args: []string{"-gpus", "2", "-variant", "naive", "-compare", "-kernels"},
			ignored: []string{"-variant", "-compare", "-kernels"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append(append([]string{}, base...), tc.args...)...)
			cmd.Env = append(os.Environ(), "EMOGI_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if tc.ignored == nil {
				if err != nil {
					t.Fatalf("run failed: %v\n%s", err, stderr.String())
				}
				if !strings.Contains(string(out), "validated:") {
					t.Errorf("run printed no validation line:\n%s", out)
				}
				return
			}
			if err == nil {
				t.Fatalf("run succeeded, want a failure naming %v; output:\n%s", tc.ignored, out)
			}
			msg := stderr.String()
			want := "ignores " + strings.Join(tc.ignored, ", ") + ";"
			if !strings.Contains(msg, want) {
				t.Errorf("error %q does not name exactly %q", strings.TrimSpace(msg), want)
			}
		})
	}
}
