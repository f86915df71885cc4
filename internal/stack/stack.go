// Package stack assembles the two serving processes: what one mqserve runs
// (one updatable pool, result cache, server) and what one mqrouter runs
// (router, result cache, server). Every answer to the paper's question a
// process gives — bare server, cached, one of N partitioned backends, a
// router in front of them — is one of these configurations, and every one
// takes writes and cuts shipments from the index it answers from.
//
// A config field is the command's flag of the same meaning, resolved;
// deployment settings (listen addresses, -obs, -fault, signals) stay with
// the commands. Check refuses a bad combination before the dataset exists,
// so a command calls it first; Build checks again and assembles.
package stack

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/qcache"
	"mobispatial/internal/router"
	"mobispatial/internal/serve"
	"mobispatial/internal/shard"
)

// Server is mqserve's stack: one process answering from a local pool.
type Server struct {
	Dataset *dataset.Dataset // -dataset
	// Shards is -shards: the monolithic pool's shard count (0 =
	// mutable.DefaultShards). A partitioned pool has one shard per held
	// range, so Shards must be 0 with a partition.
	Shards int
	// Partition is -partition "i/N" ("" = the whole map), placed at
	// Replicas (-replicas) ranges per backend; Replicas is read only with a
	// partition.
	Partition string
	Replicas  int
	QCacheMB  int     // -qcache (0 = no result cache)
	QCell     float64 // -qcell
	InFlight  int     // -inflight
}

// Router is mqrouter's stack: a router over running backends.
type Router struct {
	Dataset    *dataset.Dataset // -dataset
	Backends   []string         // -backends, split at commas
	Conns      int              // -conns
	LegTimeout time.Duration    // -leg-timeout
	Register   time.Duration    // -register
	Refresh    time.Duration    // -refresh
	QCacheMB   int              // -qcache
	QCell      float64          // -qcell
}

// Stack is one built process: the server (not yet listening) and what it
// was built from. Exactly one of Pool and Router is set.
type Stack struct {
	Server *serve.Server
	Hub    *obs.Hub
	Cache  *qcache.Cache // nil without a -qcache budget

	// Pool advertises the summary rows itself (SummaryRanges), one per
	// held range. The held items stay with it: a shard.Held would pin the
	// whole cut map for the process's life.
	Pool   *mutable.Pool
	Router *router.Router

	closers []func()
}

// Close closes the server and then what it serves from. A graceful
// Shutdown of the server may come first.
func (s *Stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// Check refuses what mqserve refuses before it generates a map.
func (c Server) Check() error {
	_, _, err := c.placement()
	return err
}

// placement parses Partition and refuses a placement shard.Hold would
// refuse; n is 0 without a partition.
func (c Server) placement() (backend, n int, err error) {
	if c.Partition == "" {
		return 0, 0, nil
	}
	is, ns, ok := strings.Cut(c.Partition, "/")
	backend, errI := strconv.Atoi(is)
	n, errN := strconv.Atoi(ns)
	if !ok || errI != nil || errN != nil {
		return 0, 0, fmt.Errorf("bad -partition %q (want i/N with 0 <= i < N)", c.Partition)
	}
	if err := shard.CheckHold(backend, n, c.Replicas); err != nil {
		return 0, 0, fmt.Errorf("bad -partition %s with -replicas %d: %w", c.Partition, c.Replicas, err)
	}
	if c.Shards != 0 {
		return 0, 0, fmt.Errorf("-shards %d with -partition: a partitioned pool has one shard per held range", c.Shards)
	}
	return backend, n, nil
}

// Build assembles the stack: the pool (over the held ranges when
// partitioned, one shard each) and the tail.
func (c Server) Build() (_ *Stack, err error) {
	backend, n, err := c.placement()
	if err != nil {
		return nil, err
	}
	if c.Dataset == nil {
		return nil, errors.New("stack: no dataset")
	}
	s := &Stack{Hub: obs.NewHub()}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	cfg := mutable.Config{Obs: s.Hub}
	if n > 0 {
		var held shard.Held
		if held, err = shard.Cut(c.Dataset.Items(), n).Hold(backend, c.Replicas); err != nil {
			return nil, fmt.Errorf("-partition %s: %w", c.Partition, err)
		}
		cfg.Ranges, cfg.Cuts, cfg.Bounds = held.Ranges, held.Cuts, held.Bounds
		s.Pool, err = mutable.New(cfg)
	} else {
		s.Pool, err = mutable.NewFromDataset(c.Dataset, c.Shards, cfg)
	}
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, s.Pool.Close)
	return s.tail(serve.Config{Pool: s.Pool, MaxInFlight: c.InFlight, Obs: s.Hub}, c.QCacheMB, c.QCell)
}

// Check refuses what mqrouter refuses before it generates a map.
func (c Router) Check() error {
	if len(c.Backends) == 0 || slices.Equal(c.Backends, []string{""}) {
		return errors.New("-backends is required")
	}
	if i := slices.Index(c.Backends, ""); i >= 0 {
		return fmt.Errorf("-backends %q: entry %d is empty", strings.Join(c.Backends, ","), i)
	}
	return nil
}

// Build registers a router with the backends and puts the tail in front of
// it. The router is the server's pool, and its own result cache's validity
// view (the cluster's per-range version vector), so a hit skips the whole
// fan-out. A shipment through it is cut from routed data-mode reads.
func (c Router) Build() (_ *Stack, err error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	s := &Stack{Hub: obs.NewHub()}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if s.Router, err = router.New(c.config(s.Hub)); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { s.Router.Close() })
	return s.tail(serve.Config{Pool: s.Router, Obs: s.Hub}, c.QCacheMB, c.QCell)
}

func (c Router) config(hub *obs.Hub) router.Config {
	return router.Config{
		Backends:        c.Backends,
		Dataset:         c.Dataset,
		ConnsPerBackend: c.Conns,
		LegTimeout:      c.LegTimeout,
		RegisterTimeout: c.Register,
		RefreshInterval: c.Refresh,
		Obs:             hub,
	}
}

// tail is how both tiers end: the result cache a -qcache budget asks for,
// and the server over the pool.
func (s *Stack) tail(cfg serve.Config, cacheMB int, cell float64) (*Stack, error) {
	if cacheMB > 0 {
		s.Cache = qcache.New(qcache.Config{MaxBytes: cacheMB << 20, CellSize: cell, Obs: s.Hub})
		cfg.Cache = s.Cache
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	s.Server = srv
	s.closers = append(s.closers, func() { srv.Close() })
	return s, nil
}
