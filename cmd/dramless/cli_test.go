package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// cliArgsEnv carries the argument list of a re-executed test binary that
// should run main instead of the tests (the commands exit the process).
const cliArgsEnv = "DRAMLESS_CLI_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(cliArgsEnv); ok {
		os.Args = append([]string{"dramless"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command line in a child process and returns its exit
// code and stderr.
func runCLI(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("%s: %v", args, err)
	return 0, ""
}

// TestCLIUnknownKernel pins the error path of a bad -kernels list: the
// command prints the unknown name with the valid ones and exits 1,
// instead of panicking.
func TestCLIUnknownKernel(t *testing.T) {
	for _, args := range []string{
		"experiments -kernels nope table3",
		"arena -kernels nope",
	} {
		code, stderr := runCLI(t, args)
		if code != 1 || !strings.Contains(stderr, `unknown kernel "nope"`) ||
			!strings.Contains(stderr, "gemver") || strings.Contains(stderr, "panic") {
			t.Errorf("%s: exit %d, stderr:\n%s", args, code, stderr)
		}
	}
}

// TestCLIRejectsBadSizes pins the size-flag checks: a non-positive
// trace -n and a negative -scale exit 2 with a message naming the flag,
// instead of panicking or silently running at the default scale.
func TestCLIRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"trace -write -n -1", "-n"},
		{"trace -n 0", "-n"},
		{"experiments -scale -1 table3", "-scale"},
		{"arena -scale -1", "-scale"},
	} {
		code, stderr := runCLI(t, tc.args)
		if code != 2 || !strings.Contains(stderr, tc.flag+" must be") || strings.Contains(stderr, "panic") {
			t.Errorf("%s: exit %d, stderr:\n%s", tc.args, code, stderr)
		}
	}
}

// TestCLINoLanesFlag pins that no subcommand accepts -lanes any more:
// the flag package rejects it as undefined (exit 2).
func TestCLINoLanesFlag(t *testing.T) {
	for _, args := range []string{
		"experiments -lanes 2 table1",
		"arena -lanes 2",
		"run -lanes 2",
	} {
		code, stderr := runCLI(t, args)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -lanes") {
			t.Errorf("%s: exit %d, stderr:\n%s", args, code, stderr)
		}
	}
}
