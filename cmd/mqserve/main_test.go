package main

import (
	"strings"
	"testing"
)

// TestFlagValidation drives run's refusals. Every case names a dataset that
// does not exist: flag validation comes first, so a refused combination
// fails with its own reason and an accepted one gets as far as "unknown
// dataset" — without generating a map or opening a socket.
func TestFlagValidation(t *testing.T) {
	const accepted = "unknown dataset"
	for _, tc := range []struct{ args, want string }{
		{"", accepted},
		{"-shards 8 -qcache 1 -qcell 0", accepted},
		{"-partition 0/3", accepted},
		{"-partition 2/3 -replicas 3", accepted},

		{"-partition 0/3x", "bad -partition"},
		{"-partition 0/", "bad -partition"},
		{"-partition /3", "bad -partition"},
		{"-partition 1", "bad -partition"},
		{"-partition 3/3", "bad -partition"},
		{"-partition -1/3", "bad -partition"},
		{"-partition 0/0", "bad -partition"},
		{"-partition 0/3/1", "bad -partition"},
		{"-partition 0/3 -replicas 0", "outside [1, 3]"},
		{"-partition 0/3 -replicas 4", "outside [1, 3]"},
		{"-replicas 2", "needs -partition"},
		{"-partition 0/3 -shards 4", "one shard per held range"},
	} {
		err := run(append(strings.Fields(tc.args), "-dataset", "nope"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%s) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
