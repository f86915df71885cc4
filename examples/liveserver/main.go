// Liveserver: boots the real TCP service (internal/serve) in-process,
// connects the partitioning-aware client, ships a budgeted sub-index, and
// then watches the planner change its mind as the (simulated) wireless link
// degrades — the paper's Fig. 4/5 crossover as a live routing decision. The
// same query is cheap to offload on a fast campus link and cheaper to answer
// on the handheld when the channel collapses.
//
//	go run ./examples/liveserver
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/stack"
)

func main() {
	fmt.Println("generating the NYC dataset and booting the server...")
	ds := dataset.NYC()
	st, err := stack.Server{Dataset: ds}.Build()
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go st.Server.Serve(lis)
	fmt.Printf("server: %d segments on %s\n\n", ds.Len(), lis.Addr())

	c, err := client.New(client.Config{Addr: lis.Addr().String()})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// The handheld ships a sub-index around its neighborhood: enough budget
	// for the whole (small) NYC map, so every query below is covered and the
	// plan choice is purely the advisor's.
	p := client.NewPlanner(c)
	center := ds.Extent.Center()
	window := geom.Rect{
		Min: geom.Point{X: center.X - 2000, Y: center.Y - 2000},
		Max: geom.Point{X: center.X + 2000, Y: center.Y + 2000},
	}
	budget := ds.Len()*ds.RecordBytes + st.Master.IndexBytes() + 1<<20
	if err := p.FetchShipment(window, budget, ds.RecordBytes); err != nil {
		log.Fatal(err)
	}
	ship := p.Shipment()
	fmt.Printf("shipment: %d records, coverage %.0fx%.0f km\n\n",
		ship.Len(), ship.Coverage.Width()/1000, ship.Coverage.Height()/1000)

	point := core.Point(center)
	smallRange := core.Range(geom.Rect{
		Min: geom.Point{X: center.X - 300, Y: center.Y - 300},
		Max: geom.Point{X: center.X + 300, Y: center.Y + 300},
	})
	bigRange := core.Range(geom.Rect{
		Min: geom.Point{X: center.X - 15000, Y: center.Y - 15000},
		Max: geom.Point{X: center.X + 15000, Y: center.Y + 15000},
	})

	// Walk the link from a fast WLAN down to a struggling wide-area channel.
	links := []struct {
		name string
		rtt  time.Duration
		bps  float64
	}{
		{"campus WLAN, 54 Mbps", 2 * time.Millisecond, 54e6},
		{"paper's 2 Mbps WaveLAN", 5 * time.Millisecond, 2e6},
		{"congested 200 kbps", 40 * time.Millisecond, 200e3},
		{"fringe 20 kbps", 200 * time.Millisecond, 20e3},
	}
	queries := []struct {
		name string
		q    core.Query
	}{
		{"point lookup", point},
		{"small range (600 m)", smallRange},
		{"big range (30 km)", bigRange},
	}

	fmt.Printf("%-26s", "link")
	for _, q := range queries {
		fmt.Printf("  %-20s", q.name)
	}
	fmt.Println()
	for _, l := range links {
		c.SetLink(l.rtt, l.bps)
		fmt.Printf("%-26s", l.name)
		for _, q := range queries {
			plan := p.Plan(q.q)
			fmt.Printf("  %-20s", plan)
		}
		fmt.Println()
	}

	// Execute one query per regime to show the answers agree regardless of
	// where the work ran.
	fmt.Println("\nexecuting the big range on both extremes:")
	c.SetLink(2*time.Millisecond, 54e6)
	fast, err := p.Execute(bigRange)
	if err != nil {
		log.Fatal(err)
	}
	c.SetLink(200*time.Millisecond, 20e3)
	slow, err := p.Execute(bigRange)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fast link:   %-12s -> %d records\n", fast.Plan, len(fast.Records))
	fmt.Printf("  fringe link: %-12s -> %d records\n", slow.Plan, len(slow.Records))
	if len(fast.Records) != len(slow.Records) {
		log.Fatalf("answers disagree: %d vs %d", len(fast.Records), len(slow.Records))
	}
	fmt.Println("  identical answers — only the partitioning moved.")
}
