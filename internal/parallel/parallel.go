// Package parallel is the benchmark module's name for the frozen local
// engine at one shard. The engine is internal/shard; this package holds only
// the four names bench/ spells (a pinned path), so deleting it is an edit to
// bench/ alone. Nothing else in the module imports it (TestOneFrozenEngine).
package parallel

import (
	"fmt"

	"mobispatial/internal/dataset"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

type (
	Pool          = shard.Pool
	Scratch       = shard.Scratch
	NearestResult = shard.NearestResult
)

// New is shard.Over: one shard over the given tree, which carries the
// geometry; ds must be the dataset it was built from, and only its presence
// is checked. workers is ignored: the engine's width is GOMAXPROCS, what 0
// always meant here.
func New(ds *dataset.Dataset, tree *rtree.Tree, workers int) (*Pool, error) {
	if ds == nil {
		return nil, fmt.Errorf("parallel: nil dataset")
	}
	return shard.Over(tree)
}
