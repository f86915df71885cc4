// Command advisor evaluates the paper's §4.1 analytic conditions: given a
// workload characterization and platform parameters, should the work be
// offloaded to the server — from the performance and energy perspectives?
//
//	advisor -fully-local 5e6 -w2 4e5 -tx 1000 -rx 20000 -bw 2,4,6,8,11
//
// Flags describe one candidate partitioning; the tool prints, per bandwidth,
// the partitioned/fully-local ratios for cycles and energy and the verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mobispatial/internal/core"
	"mobispatial/internal/energy"
	"mobispatial/internal/proto"
)

func main() {
	table2 := energy.DefaultClientModel()
	fullyLocal := flag.Float64("fully-local", 5e6, "client cycles of the fully-local execution")
	local := flag.Float64("local", 0, "client cycles of the locally-kept portion (w1+w3)")
	protoCycles := flag.Float64("protocol", 5e3, "client cycles of protocol processing")
	w2 := flag.Float64("w2", 4e5, "server cycles of the offloaded portion")
	clientMHz := flag.Float64("client-mhz", table2.ClientHz/1e6, "client clock in MHz")
	serverMHz := flag.Float64("server-mhz", 1000, "server clock in MHz")
	txBytes := flag.Int("tx", proto.QueryRequestBytes, "transmitted payload bytes")
	rxBytes := flag.Int("rx", 4096, "received payload bytes")
	distance := flag.Float64("distance", 1000, "meters to the base station")
	pClient := flag.Float64("p-client", table2.PClient, "client compute power (W)")
	bws := flag.String("bw", "2,4,6,8,11", "bandwidths to evaluate (Mbps, comma-separated)")
	flag.Parse()

	// The flags are the what-if inputs; every other power is Table 2's.
	client := table2.At(*distance)
	client.ClientHz, client.PClient = *clientMHz*1e6, *pClient
	in := core.AnalyticInputs{
		CFullyLocal:  *fullyLocal,
		CLocal:       *local,
		CProtocol:    *protoCycles,
		CW2:          *w2,
		ServerHz:     *serverMHz * 1e6,
		PacketTxBits: float64(proto.Packetize(*txBytes).WireBytes * 8),
		PacketRxBits: float64(proto.Packetize(*rxBytes).WireBytes * 8),
		Client:       client,
	}

	fmt.Printf("fully-local: %.3g cycles at %.0f MHz; offload: %.3g server cycles, %dB up / %dB down, %gm range\n\n",
		in.CFullyLocal, *clientMHz, in.CW2, *txBytes, *rxBytes, *distance)
	fmt.Printf("%10s %13s %13s %12s\n", "bandwidth", "cycle ratio", "energy ratio", "offload for")
	for _, tok := range strings.Split(*bws, ",") {
		mbps, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || mbps <= 0 {
			fmt.Fprintf(os.Stderr, "advisor: bad bandwidth %q\n", tok)
			os.Exit(1)
		}
		in.BandwidthBps = mbps * 1e6
		v := in.Advise()
		verdict := "neither"
		switch {
		case v.SavesCycles && v.SavesEnergy:
			verdict = "both"
		case v.SavesCycles:
			verdict = "performance"
		case v.SavesEnergy:
			verdict = "energy"
		}
		fmt.Printf("%8.1f M %13.3f %13.3f %12s\n", mbps, v.CycleRatio, v.EnergyRatio, verdict)
	}
	fmt.Println("\nratios are partitioned / fully-local: below 1.0 means offloading wins")
}
