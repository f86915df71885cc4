// Command advisor evaluates the paper's §4.1 analytic model: given a
// workload characterization and platform parameters, should the work be
// offloaded to the server — for performance, for energy?
//
//	advisor -fully-local 5e6 -w2 4e5 -tx 1000 -rx 20000 -bw 2,4,6,8,11
//
// Flags describe one candidate partitioning; the tool prints, per bandwidth,
// the partitioned/fully-local ratios for cycles and energy and the objectives
// under which scheme.Choose — the rule every planner in this repository runs
// — picks the partitioning.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"mobispatial/internal/energy"
	"mobispatial/internal/proto"
	"mobispatial/internal/scheme"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	table2 := energy.DefaultClientModel()
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	fullyLocal := fs.Float64("fully-local", 5e6, "client cycles of the fully-local execution")
	local := fs.Float64("local", 0, "client cycles of the locally-kept portion (w1+w3)")
	protoCycles := fs.Float64("protocol", 5e3, "client cycles of protocol processing")
	w2 := fs.Float64("w2", 4e5, "server cycles of the offloaded portion")
	clientMHz := fs.Float64("client-mhz", table2.ClientHz/1e6, "client clock in MHz")
	serverMHz := fs.Float64("server-mhz", 1000, "server clock in MHz")
	txBytes := fs.Int("tx", proto.QueryRequestBytes, "transmitted payload bytes")
	rxBytes := fs.Int("rx", 4096, "received payload bytes")
	distance := fs.Float64("distance", 1000, "meters to the base station")
	pClient := fs.Float64("p-client", table2.PClient, "client compute power (W)")
	bws := fs.String("bw", "2,4,6,8,11", "bandwidths to evaluate (Mbps, comma-separated)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Nothing is priced until every input is a quantity the model can divide
	// by or price: a zero clock once printed a NaN ratio and a verdict.
	type input struct {
		name string
		v    float64
	}
	for _, f := range []input{{"-client-mhz", *clientMHz}, {"-server-mhz", *serverMHz}, {"-distance", *distance}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %g: want a positive number", f.name, f.v)
		}
	}
	for _, f := range []input{{"-fully-local", *fullyLocal}, {"-local", *local}, {"-protocol", *protoCycles}, {"-w2", *w2},
		{"-tx", float64(*txBytes)}, {"-rx", float64(*rxBytes)}, {"-p-client", *pClient}} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %g: want a non-negative number", f.name, f.v)
		}
	}
	var mbps []float64
	for _, tok := range strings.Split(*bws, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("bad bandwidth %q in -bw: want positive Mbps", tok)
		}
		mbps = append(mbps, v)
	}

	// The flags are the what-if inputs; every other power is Table 2's.
	client := table2.At(*distance)
	client.ClientHz, client.PClient = *clientMHz*1e6, *pClient
	in := scheme.AnalyticInputs{
		CFullyLocal:  *fullyLocal,
		CLocal:       *local,
		CProtocol:    *protoCycles,
		CW2:          *w2,
		ServerHz:     *serverMHz * 1e6,
		PacketTxBits: float64(proto.Packetize(*txBytes).WireBytes * 8),
		PacketRxBits: float64(proto.Packetize(*rxBytes).WireBytes * 8),
		Client:       client,
	}

	fmt.Fprintf(out, "fully-local: %.3g cycles at %.0f MHz; offload: %.3g server cycles, %dB up / %dB down, %gm range\n\n",
		in.CFullyLocal, *clientMHz, in.CW2, *txBytes, *rxBytes, *distance)
	fmt.Fprintf(out, "%10s %13s %13s %12s\n", "bandwidth", "cycle ratio", "energy ratio", "offload for")
	for _, b := range mbps {
		in.BandwidthBps = b * 1e6
		stay, offload := in.FullyLocal(), in.Partitioned(scheme.FullyServer)
		perf := scheme.Choose(scheme.Performance, stay, offload).Scheme == scheme.FullyServer
		en := scheme.Choose(scheme.Energy, stay, offload).Scheme == scheme.FullyServer
		cycleRatio, energyRatio := offload.Over(stay)
		fmt.Fprintf(out, "%8.1f M %13.3f %13.3f %12s\n", b, cycleRatio, energyRatio, scheme.OffloadFor(perf, en))
	}
	fmt.Fprintln(out, "\nratios are partitioned / fully-local: below 1.0 means offloading wins (within 5 % of 1.0, only if the other ratio is below 1.0 too)")
	return nil
}
