package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagValidation drives run's refusals: a quantity the model would divide
// by, or price a negative amount of, is refused before anything is printed —
// a zero clock once printed NaN in the energy column and the verdict
// "performance" beside it.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-client-mhz 0", "-client-mhz 0: want a positive number"},
		{"-client-mhz -125", "want a positive number"},
		{"-client-mhz NaN", "want a positive number"},
		{"-server-mhz 0", "-server-mhz 0: want a positive number"},
		{"-server-mhz +Inf", "want a positive number"},
		{"-distance 0", "-distance 0: want a positive number"},
		{"-distance -10", "-distance -10: want a positive number"},
		{"-fully-local -1", "-fully-local -1: want a non-negative number"},
		{"-local -1", "-local -1: want a non-negative number"},
		{"-protocol -1", "-protocol -1: want a non-negative number"},
		{"-w2 -4e5", "-w2 -400000: want a non-negative number"},
		{"-tx -5", "-tx -5: want a non-negative number"},
		{"-rx -1", "-rx -1: want a non-negative number"},
		{"-p-client -0.1", "-p-client -0.1: want a non-negative number"},
		{"-w2 NaN", "want a non-negative number"},
		{"-bw 0", "bad bandwidth"},
		{"-bw 2,-4", "bad bandwidth"},
		{"-bw 2,,4", "bad bandwidth"},
		{"-bw 2,x", "bad bandwidth"},
		{"-bw NaN", "bad bandwidth"},
		{"-bw Inf", "bad bandwidth"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%s) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%s) printed before refusing:\n%s", tc.args, out.String())
		}
	}

	// The edges that are legitimate what-ifs: nothing offloaded, nothing to
	// compute, a free client.
	var out bytes.Buffer
	if err := run(strings.Fields("-fully-local 0 -local 0 -protocol 0 -w2 0 -tx 0 -rx 0 -p-client 0"), &out); err != nil {
		t.Errorf("all-zero workload refused: %v", err)
	}
	if s := out.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("all-zero workload printed a non-number:\n%s", s)
	}
}

// TestDefaultInvocationGolden pins the default invocation's rows verbatim:
// the two ratio columns read off the model's estimates, the last column
// scheme.Choose under each objective. At 2 Mbps the energy ratio sits outside
// the rule's 5 % band, so offloading is chosen for performance only.
func TestDefaultInvocationGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	const want = `fully-local: 5e+06 cycles at 125 MHz; offload: 4e+05 server cycles, 64B up / 4096B down, 1000m range

 bandwidth   cycle ratio  energy ratio  offload for
     2.0 M         0.457         1.062  performance
     4.0 M         0.234         0.537         both
     6.0 M         0.160         0.362         both
     8.0 M         0.122         0.275         both
    11.0 M         0.092         0.203         both
`
	if got := out.String(); !strings.HasPrefix(got, want) {
		t.Errorf("default invocation printed\n%s\nwant it to begin\n%s", got, want)
	}
}
