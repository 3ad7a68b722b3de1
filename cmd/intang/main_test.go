package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set in the environment, makes the test binary run
// the command itself instead of its tests, so a test can drive the
// real main in a child process.
const runMainEnv = "INTANG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runIntang runs the command with args in a child process and returns
// its stdout, its stderr and its exit code.
func runIntang(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.Bytes(), errOut.Bytes(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("run intang %v: %v", args, err)
	}
	return out.Bytes(), errOut.Bytes(), 0
}

// TestUnknownStrategyExits2 checks that a -strategy that is neither a
// registered name nor spec text exits 2 before any trial runs, with
// the parser's message beside the -list hint.
func TestUnknownStrategyExits2(t *testing.T) {
	for _, tc := range []struct{ strategy, want string }{
		{"no-such-strategy", `spec: rule must start with "on:<phase>"`},
		{"on:first-payload[teardown(flags=rst,disc=tll)]", `unknown discrepancy "tll"`},
	} {
		out, stderr, code := runIntang(t, "-strategy", tc.strategy, "-trials", "1")
		if code != 2 {
			t.Fatalf("%s: exit code %d, want 2 (stdout %q)", tc.strategy, code, out)
		}
		for _, want := range []string{"-list", tc.want} {
			if !bytes.Contains(stderr, []byte(want)) {
				t.Errorf("%s: stderr %q does not contain %q", tc.strategy, stderr, want)
			}
		}
		if len(out) != 0 {
			t.Errorf("%s: printed %q before rejecting the strategy", tc.strategy, out)
		}
	}
}
