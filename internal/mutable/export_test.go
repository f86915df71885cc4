package mutable

import "mobispatial/internal/rtree"

// BaseLeaves returns shard i's base leaves in pack order, for the external
// tests that build a pool the way a server does.
func BaseLeaves(p *Pool, i int) []rtree.Item { return p.shards[i].base.Load().tree.PackOrder() }
