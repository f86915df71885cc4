// Package dataset provides the line-segment road-atlas datasets and query
// workloads of the paper's evaluation (§5.4).
//
// The paper uses two extracts of the US Census TIGER database: "PA" (139,006
// street segments of four southern-Pennsylvania counties, 10.06 MB) and
// "NYC" (38,778 segments of New York City and Union County NJ, 7.09 MB).
// TIGER extracts are not redistributable inside this repository, so the
// package generates synthetic road networks that preserve the properties
// the experiments depend on: the exact segment counts and byte volumes, the
// clustered spatial density (towns/boroughs vs rural background), grid-like
// local street geometry, and the segment-length scale. DESIGN.md records
// this substitution.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
)

// Dataset is an immutable collection of street segments plus the physical
// record layout used for message-size and memory accounting. Record i lives
// at simulated address DataBase + i×RecordBytes; a record holds the segment
// endpoints plus TIGER-style attributes (street name, class, zips), which is
// why RecordBytes is much larger than the 16 geometry bytes.
type Dataset struct {
	Name        string
	Segments    []geom.Segment
	RecordBytes int
	Extent      geom.Rect
}

// Len returns the number of segments.
func (d *Dataset) Len() int { return len(d.Segments) }

// TotalBytes returns the byte volume of all data records — the "10.06 MB"
// style figure of §5.4.
func (d *Dataset) TotalBytes() int { return len(d.Segments) * d.RecordBytes }

// RecordAddr returns the simulated address of record id.
func (d *Dataset) RecordAddr(id uint32) uint64 {
	return ops.DataBase + uint64(id)*uint64(d.RecordBytes)
}

// Items returns the rtree bulk-load items for the dataset: each segment
// under its id, carried by its leaf (rtree.SegItem).
func (d *Dataset) Items() []rtree.Item {
	items := make([]rtree.Item, len(d.Segments))
	for i, s := range d.Segments {
		items[i] = rtree.SegItem(s, uint32(i))
	}
	return items
}

// Seg returns the segment with the given id.
func (d *Dataset) Seg(id uint32) geom.Segment { return d.Segments[id] }

// GenConfig parameterizes the synthetic road-network generator.
type GenConfig struct {
	Name        string
	NumSegments int
	RecordBytes int
	// Extent is the map area in meters.
	Extent geom.Rect
	// Clusters is the number of town/borough density clusters.
	Clusters int
	// ClusterStdFrac is each cluster's Gaussian sigma as a fraction of the
	// extent's smaller side.
	ClusterStdFrac float64
	// UniformFrac is the fraction of streets seeded uniformly (rural
	// background roads) rather than from a cluster.
	UniformFrac float64
	// StreetSegs is the [min,max) number of segments per street polyline.
	StreetSegs [2]int
	// SegLen is the [min,max) length in meters of one segment.
	SegLen [2]float64
	// GridBias in [0,1] pulls street headings toward the axes (1 = strict
	// Manhattan grid, 0 = free directions).
	GridBias float64
	Seed     int64
}

// Validate reports configuration errors.
func (c GenConfig) Validate() error {
	switch {
	case c.NumSegments <= 0:
		return fmt.Errorf("dataset: NumSegments %d", c.NumSegments)
	case c.RecordBytes < 16:
		return fmt.Errorf("dataset: RecordBytes %d < 16 (endpoints alone need 16)", c.RecordBytes)
	case c.Extent.IsEmpty() || c.Extent.Area() <= 0:
		return fmt.Errorf("dataset: extent %v has no area", c.Extent)
	case c.StreetSegs[0] < 1 || c.StreetSegs[1] < c.StreetSegs[0]:
		return fmt.Errorf("dataset: bad StreetSegs %v", c.StreetSegs)
	case c.SegLen[0] <= 0 || c.SegLen[1] < c.SegLen[0]:
		return fmt.Errorf("dataset: bad SegLen %v", c.SegLen)
	}
	return nil
}

// Generate builds a synthetic road network. The same config always yields
// the same dataset (generation is fully deterministic in Seed).
func Generate(cfg GenConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{
		Name:        cfg.Name,
		Segments:    make([]geom.Segment, 0, cfg.NumSegments),
		RecordBytes: cfg.RecordBytes,
		Extent:      cfg.Extent,
	}

	// Town centers.
	type clusterT struct {
		c     geom.Point
		sigma float64
	}
	clusters := make([]clusterT, cfg.Clusters)
	side := math.Min(cfg.Extent.Width(), cfg.Extent.Height())
	for i := range clusters {
		clusters[i] = clusterT{
			c: geom.Point{
				X: cfg.Extent.Min.X + rng.Float64()*cfg.Extent.Width(),
				Y: cfg.Extent.Min.Y + rng.Float64()*cfg.Extent.Height(),
			},
			// Vary town sizes around the configured sigma.
			sigma: side * cfg.ClusterStdFrac * (0.5 + rng.Float64()),
		}
	}

	clamp := func(p geom.Point) geom.Point {
		p.X = math.Max(cfg.Extent.Min.X, math.Min(cfg.Extent.Max.X, p.X))
		p.Y = math.Max(cfg.Extent.Min.Y, math.Min(cfg.Extent.Max.Y, p.Y))
		return p
	}

	stalled := 0
	for len(d.Segments) < cfg.NumSegments {
		before := len(d.Segments)
		// Seed point for a new street.
		var at geom.Point
		if cfg.Clusters == 0 || rng.Float64() < cfg.UniformFrac {
			at = geom.Point{
				X: cfg.Extent.Min.X + rng.Float64()*cfg.Extent.Width(),
				Y: cfg.Extent.Min.Y + rng.Float64()*cfg.Extent.Height(),
			}
		} else {
			cl := clusters[rng.Intn(len(clusters))]
			at = clamp(geom.Point{
				X: cl.c.X + rng.NormFloat64()*cl.sigma,
				Y: cl.c.Y + rng.NormFloat64()*cl.sigma,
			})
		}
		// Street heading, optionally snapped toward the axes.
		heading := rng.Float64() * 2 * math.Pi
		if cfg.GridBias > 0 {
			snapped := math.Round(heading/(math.Pi/2)) * (math.Pi / 2)
			heading = heading*(1-cfg.GridBias) + snapped*cfg.GridBias
		}
		nSegs := cfg.StreetSegs[0]
		if span := cfg.StreetSegs[1] - cfg.StreetSegs[0]; span > 0 {
			nSegs += rng.Intn(span)
		}
		for s := 0; s < nSegs && len(d.Segments) < cfg.NumSegments; s++ {
			length := cfg.SegLen[0] + rng.Float64()*(cfg.SegLen[1]-cfg.SegLen[0])
			next := clamp(geom.Point{
				X: at.X + math.Cos(heading)*length,
				Y: at.Y + math.Sin(heading)*length,
			})
			if next == at {
				break // pinned at the boundary; start a new street
			}
			d.Segments = append(d.Segments, geom.Segment{A: at, B: next})
			at = next
			// Streets meander slightly.
			heading += (rng.Float64() - 0.5) * 0.3
		}
		if len(d.Segments) == before {
			if stalled++; stalled > 100000 {
				return nil, fmt.Errorf("dataset: generator stalled at %d/%d segments (degenerate config?)", before, cfg.NumSegments)
			}
		} else {
			stalled = 0
		}
	}
	return d, nil
}

// PAConfig returns the generator configuration for the PA-like dataset:
// 139,006 segments / 10.06 MB (RecordBytes 76) over a 100×80 km rural area
// with a handful of towns (Fulton, Franklin, Bedford, Huntingdon counties in
// the paper).
func PAConfig() GenConfig {
	return GenConfig{
		Name:           "PA",
		NumSegments:    139006,
		RecordBytes:    76, // 10.06 MB / 139,006 records ≈ 75.9 B
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 100_000, Y: 80_000}},
		Clusters:       14,
		ClusterStdFrac: 0.05,
		UniformFrac:    0.35,
		StreetSegs:     [2]int{3, 18},
		SegLen:         [2]float64{60, 220},
		GridBias:       0.4,
		Seed:           1001,
	}
}

// NYCConfig returns the generator configuration for the NYC-like dataset:
// 38,778 segments / 7.09 MB (RecordBytes 192 — urban TIGER records carry
// longer name/address attribute payloads) over a dense 40×40 km grid.
func NYCConfig() GenConfig {
	return GenConfig{
		Name:           "NYC",
		NumSegments:    38778,
		RecordBytes:    192, // 7.09 MB / 38,778 records ≈ 191.7 B
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 40_000, Y: 40_000}},
		Clusters:       6,
		ClusterStdFrac: 0.12,
		UniformFrac:    0.08,
		StreetSegs:     [2]int{4, 24},
		SegLen:         [2]float64{50, 130},
		GridBias:       0.85,
		Seed:           2002,
	}
}

// PA generates the PA-like dataset.
func PA() *Dataset { return mustGenerate(PAConfig()) }

// NYC generates the NYC-like dataset.
func NYC() *Dataset { return mustGenerate(NYCConfig()) }

// ByName generates the dataset a -dataset flag or command argument names:
// "pa" or "nyc", in either case. It is the one place a name becomes a
// dataset, so every binary of a cluster built from the same name holds the
// same deterministic map.
func ByName(name string) (*Dataset, error) {
	switch strings.ToLower(name) {
	case "pa":
		return PA(), nil
	case "nyc":
		return NYC(), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want pa or nyc)", name)
}

func mustGenerate(cfg GenConfig) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err) // static configs are validated by tests
	}
	return d
}

// Stats summarizes a dataset for reporting.
type Stats struct {
	Name        string
	Segments    int
	TotalBytes  int
	RecordBytes int
	Extent      geom.Rect
	MeanSegLen  float64
}

// Summary computes dataset statistics.
func (d *Dataset) Summary() Stats {
	var total float64
	for _, s := range d.Segments {
		total += s.Length()
	}
	mean := 0.0
	if len(d.Segments) > 0 {
		mean = total / float64(len(d.Segments))
	}
	return Stats{
		Name:        d.Name,
		Segments:    len(d.Segments),
		TotalBytes:  d.TotalBytes(),
		RecordBytes: d.RecordBytes,
		Extent:      d.Extent,
		MeanSegLen:  mean,
	}
}

// UtilityLines generates a sparse overlay layer for spatial joins: long
// meandering polylines (rail lines, rivers, transmission corridors) crossing
// the base dataset's extent. The layer is its own Dataset so both join
// inputs carry record layouts and addresses; its records live immediately
// after the base dataset's region.
func UtilityLines(base *Dataset, lines, segsPerLine int, seed int64) (*Dataset, error) {
	if lines <= 0 || segsPerLine <= 0 {
		return nil, fmt.Errorf("dataset: utility layer needs positive sizes")
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Name:        base.Name + "-utility",
		RecordBytes: base.RecordBytes,
		Extent:      base.Extent,
		Segments:    make([]geom.Segment, 0, lines*segsPerLine),
	}
	w, h := base.Extent.Width(), base.Extent.Height()
	for l := 0; l < lines; l++ {
		// Enter at a random edge point, head across the extent.
		at := geom.Point{
			X: base.Extent.Min.X + rng.Float64()*w,
			Y: base.Extent.Min.Y,
		}
		heading := math.Pi/2 + (rng.Float64()-0.5)*0.8 // roughly northward
		if l%2 == 1 {
			at = geom.Point{X: base.Extent.Min.X, Y: base.Extent.Min.Y + rng.Float64()*h}
			heading = (rng.Float64() - 0.5) * 0.8 // roughly eastward
		}
		step := math.Max(w, h) / float64(segsPerLine)
		for s := 0; s < segsPerLine; s++ {
			next := geom.Point{
				X: at.X + math.Cos(heading)*step,
				Y: at.Y + math.Sin(heading)*step,
			}
			next.X = math.Max(base.Extent.Min.X, math.Min(base.Extent.Max.X, next.X))
			next.Y = math.Max(base.Extent.Min.Y, math.Min(base.Extent.Max.Y, next.Y))
			if next == at {
				break
			}
			d.Segments = append(d.Segments, geom.Segment{A: at, B: next})
			at = next
			heading += (rng.Float64() - 0.5) * 0.4
		}
	}
	return d, nil
}

// RecordAddrAfter returns a record-address function for a layer stored
// after another dataset in the simulated data region.
func (d *Dataset) RecordAddrAfter(base *Dataset) func(uint32) uint64 {
	offset := ops.DataBase + uint64(base.Len())*uint64(base.RecordBytes)
	return func(id uint32) uint64 { return offset + uint64(id)*uint64(d.RecordBytes) }
}
