package main

import (
	"strings"
	"testing"
)

// Degenerate sync parameters are refused by name before anything is
// simulated: the sync layer would silently replace a non-positive count by
// its default (10 ping-pongs, 100 fit points), and one fit point is no line.
func TestRunRefusesDegenerateSyncParameters(t *testing.T) {
	small := []string{"-machine", "jupiter", "-procs", "4", "-sync", "hca3", "-nrep", "2", "-scheme", "barrier"}
	for _, c := range []struct {
		args    []string
		wantErr string // empty: the run succeeds and prints a table
	}{
		{[]string{"-nfit", "0", "-nexch", "0"}, "-nfit 0"},
		{[]string{"-nfit", "1", "-nexch", "5"}, "-nfit 1"},
		{[]string{"-nfit", "-4", "-nexch", "5"}, "-nfit -4"},
		{[]string{"-nfit", "10", "-nexch", "0"}, "-nexch 0"},
		{[]string{"-nfit", "10", "-nexch", "-3"}, "-nexch -3"},
		{[]string{"-nfit", "2", "-nexch", "1"}, ""},
	} {
		var out strings.Builder
		err := run(append(append([]string(nil), small...), c.args...), &out)
		if c.wantErr == "" {
			if err != nil || out.Len() == 0 {
				t.Errorf("%v: err = %v, %d bytes of output; want a table", c.args, err, out.Len())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) || out.Len() != 0 {
			t.Errorf("%v: err = %v, %d bytes of output; want a refusal naming %q and no output", c.args, err, out.Len(), c.wantErr)
		}
	}
}
