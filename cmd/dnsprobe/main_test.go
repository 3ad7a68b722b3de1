package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set in the environment, makes the test binary run
// the command itself instead of its tests, so a test can drive the
// real main — flags, output order, stdout — in a child process.
const runMainEnv = "DNSPROBE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputMatchesGolden pins the §6 poisoned-domain discovery byte
// for byte: the hold-on probe's verdict and answers for each default
// candidate, then each poisoned domain's answer through INTANG's DNS
// forwarder.
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
		t.Fatalf("dnsprobe: %v: %s", err, stderr.Bytes())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}
