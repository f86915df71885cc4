// Command datagen generates and inspects the synthetic TIGER-like datasets.
//
//	datagen stats            print both datasets' statistics (Fig. 3 stand-in)
//	datagen map <PA|NYC>     render a coarse ASCII density map
//	datagen index <PA|NYC>   print the packed R-tree composition
package main

import (
	"fmt"
	"os"

	"mobispatial/internal/dataset"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: datagen <stats|map|index|export|import> [args]")
	}
	switch args[0] {
	case "export":
		if len(args) < 3 {
			return fmt.Errorf("usage: datagen export <PA|NYC> <path>")
		}
		ds, err := pick(args)
		if err != nil {
			return err
		}
		if err := ds.SaveFile(args[2]); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d segments) to %s\n", ds.Name, ds.Len(), args[2])
		return nil
	case "import":
		if len(args) < 2 {
			return fmt.Errorf("usage: datagen import <path>")
		}
		ds, err := dataset.LoadFile(args[1])
		if err != nil {
			return err
		}
		printStats(ds)
		return nil
	case "stats":
		for _, ds := range []*dataset.Dataset{dataset.PA(), dataset.NYC()} {
			printStats(ds)
		}
		return nil
	case "map":
		ds, err := pick(args)
		if err != nil {
			return err
		}
		printMap(ds)
		return nil
	case "index":
		ds, err := pick(args)
		if err != nil {
			return err
		}
		tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
		if err != nil {
			return err
		}
		st := tree.TreeStats()
		fmt.Printf("%s packed R-tree: %d items, %d nodes (%d leaves), height %d, fanout %d, %.2f MB\n",
			ds.Name, st.Items, st.Nodes, st.LeafNodes, st.Height, st.Fanout,
			float64(st.IndexBytes)/(1<<20))
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func pick(args []string) (*dataset.Dataset, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("usage: datagen %s <PA|NYC>", args[0])
	}
	return dataset.ByName(args[1])
}

func printStats(ds *dataset.Dataset) {
	s := ds.Summary()
	fmt.Printf("%s: %d segments, %.2f MB (%d B/record), extent %.0f×%.0f km, mean segment %.0f m\n",
		s.Name, s.Segments, float64(s.TotalBytes)/(1<<20), s.RecordBytes,
		s.Extent.Width()/1000, s.Extent.Height()/1000, s.MeanSegLen)
}

// printMap renders segment density on a coarse character grid — the ASCII
// stand-in for the paper's Fig. 3 dataset plots.
func printMap(ds *dataset.Dataset) {
	const w, h = 72, 28
	var grid [h][w]int
	maxCount := 0
	for _, s := range ds.Segments {
		m := s.Midpoint()
		x := int((m.X - ds.Extent.Min.X) / ds.Extent.Width() * w)
		y := int((m.Y - ds.Extent.Min.Y) / ds.Extent.Height() * h)
		if x >= w {
			x = w - 1
		}
		if y >= h {
			y = h - 1
		}
		grid[y][x]++
		if grid[y][x] > maxCount {
			maxCount = grid[y][x]
		}
	}
	shades := []byte(" .:-=+*#%@")
	fmt.Printf("%s density (%d segments):\n", ds.Name, ds.Len())
	for y := h - 1; y >= 0; y-- {
		row := make([]byte, w)
		for x := 0; x < w; x++ {
			idx := 0
			if maxCount > 0 {
				idx = grid[y][x] * (len(shades) - 1) / maxCount
			}
			row[x] = shades[idx]
		}
		fmt.Println(string(row))
	}
}
