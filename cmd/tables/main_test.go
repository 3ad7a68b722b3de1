package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set in the environment, makes the test binary run
// the command itself instead of its tests, so a test can drive the
// real main — flags, section order, stdout — in a child process.
const runMainEnv = "TABLES_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTables runs the command with args in a child process and returns
// its stdout, its stderr and its exit code.
func runTables(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
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
		t.Fatalf("run tables %v: %v", args, err)
	}
	return out.Bytes(), errOut.Bytes(), 0
}

// TestAllMatchesGolden pins every artifact `-what all` prints — Tables
// 1–6, Tor/VPN, the §8 ablation, the §3.4 attribution and Figures 1–4
// — byte for byte against the output captured at seed 42.
func TestAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale campaigns")
	}
	const golden = "testdata/all.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, code := runTables(t, "-what", "all", "-seed", "42")
	if code != 0 {
		t.Fatalf("tables -what all exited %d: %s", code, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestUnknownScaleExits2 checks that a -scale outside quick, mid and
// paper is a usage error, as an unknown -what is, instead of silently
// running the quick scale.
func TestUnknownScaleExits2(t *testing.T) {
	out, stderr, code := runTables(t, "-what", "1", "-scale", "small")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stdout %q)", code, out)
	}
	if !bytes.Contains(stderr, []byte("quick,mid,paper")) {
		t.Errorf("stderr %q does not list the valid scales", stderr)
	}
	if len(out) != 0 {
		t.Errorf("printed %q before rejecting the scale", out)
	}
}

// TestUnknownStrategyExits2 checks that -what explain refuses a
// -strategy that is neither a registered name nor spec text, instead of
// narrating a no-strategy trial under that name.
func TestUnknownStrategyExits2(t *testing.T) {
	out, stderr, code := runTables(t, "-what", "explain", "-strategy", "no-such-strategy", "-scale", "quick")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stdout %q)", code, out)
	}
	if !bytes.Contains(stderr, []byte("-what strategies")) {
		t.Errorf("stderr %q does not point at -what strategies", stderr)
	}
	if len(out) != 0 {
		t.Errorf("printed %q before rejecting the strategy", out)
	}
}

// TestExplainAcceptsSpecText checks that -what explain resolves spec
// text as cmd/intang and intangd do: the canonical spec of
// teardown-rst/ttl narrates the same trial as the name.
func TestExplainAcceptsSpecText(t *testing.T) {
	byName, stderr, code := runTables(t, "-what", "explain", "-strategy", "teardown-rst/ttl")
	if code != 0 {
		t.Fatalf("by name: exit code %d: %s", code, stderr)
	}
	bySpec, stderr, code := runTables(t, "-what", "explain", "-strategy", "on:first-payload[teardown(flags=rst,disc=ttl)]")
	if code != 0 {
		t.Fatalf("by spec: exit code %d: %s", code, stderr)
	}
	// The first line labels the trial with the -strategy text.
	_, nameBody, _ := bytes.Cut(byName, []byte("\n"))
	_, specBody, _ := bytes.Cut(bySpec, []byte("\n"))
	if len(nameBody) == 0 || !bytes.Equal(nameBody, specBody) {
		t.Errorf("spec text narrated another trial:\nby name:\n%s\nby spec:\n%s", byName, bySpec)
	}
}
