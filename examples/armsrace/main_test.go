package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set in the environment, makes the test binary run
// the program itself instead of its tests, so a test can drive the
// real main and read its stdout in a child process.
const runMainEnv = "ARMSRACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputMatchesGolden pins the arms-race grid byte for byte: the
// mutant population, each mutant's outcome against the measured and
// the hardened censor, and the survivors.
func TestOutputMatchesGolden(t *testing.T) {
	const golden = "testdata/output.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("armsrace: %v: %s", err, stderr.Bytes())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}
