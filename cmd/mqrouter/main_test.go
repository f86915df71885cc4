package main

import (
	"strings"
	"testing"
)

// TestFlagValidation drives run's refusals. Every case names a dataset that
// does not exist: flag validation comes first, so a refused combination
// fails with its own reason and an accepted one gets as far as "unknown
// dataset" — without generating a map or dialing a backend.
func TestFlagValidation(t *testing.T) {
	const accepted = "unknown dataset"
	for _, tc := range []struct{ args, want string }{
		{"-backends a:1", accepted},
		{"-backends a:1,b:2,c:3 -conns 8 -refresh -1s", accepted},
		{"-backends a:1 -qcache 64 -qcell 0", accepted},

		{"", "-backends is required"},
		{"-conns 8", "-backends is required"},
		{"-backends a:1,,b:2", "entry 1 is empty"},
		{"-backends ,a:1", "entry 0 is empty"},
		{"-backends a:1,", "entry 1 is empty"},
	} {
		err := run(append(strings.Fields(tc.args), "-dataset", "nope"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%s) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
