// hostref.go holds the host-speed references. The sandbox this benchmark runs
// in shares its cores with other tenants, and the time the same binary needs
// for the same work moves by 30-40% from one quarter of an hour to the next
// (see the README). Each reference is a probe that moves with the program's
// numbers and runs none of the program's code, so no change to the program
// can move it.
//
// For the serving loops it is hostRef: as many closed-loop clients as the
// benchmark has workers, each bouncing 64 bytes off a goroutine echo server
// over loopback TCP: the kernel's socket path, the netpoller and the
// scheduler's wake-ups, as in the serving chain (r = 0.74-0.95 with the timed
// loops over runs made in both host states). For set-up, which is one thread
// generating, sorting and packing the dataset, it is cpuRef.
package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// refNominal is the reference rate, in echo round trips/s, that every
	// timing metric of the untraced run is scaled to (see refSlowdown). The
	// value is about what two clients reach on the host the bounds were set
	// on, so scaled numbers read like raw ones.
	refNominal = 100_000.0
	// refElasticity is how far the program's timings move when the echo rate
	// moves by a given share: the log-log slope of run medians against the
	// echo rate read 0.5-2.4 over five timing metrics on four workloads, 1.3
	// at the median (41 + 48 runs, and two ten-run passes made in the host's
	// two states). The echo does next to no work in user space and the
	// program does, and a slow host slows that work most.
	refElasticity = 1.25
	// refSlice is how long the reference runs before and after a timed loop.
	refSlice = 50 * time.Millisecond
	echoSize = 64
)

// refSlowdown is the factor a throughput measured beside an echo rate of rps
// is multiplied by, and a time divided by, to read as on the nominal host.
func refSlowdown(rps float64) float64 {
	return math.Pow(refNominal/rps, refElasticity)
}

// hostRef is an echo server on a fresh loopback port and its clients.
type hostRef struct {
	lis   net.Listener
	conns []net.Conn
	wg    sync.WaitGroup // the accept loop and one echoing goroutine per client
}

func newHostRef(clients int) (*hostRef, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hostRef{lis: lis}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			nc, err := lis.Accept()
			if err != nil {
				return // the listener was closed
			}
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				defer nc.Close()
				_, _ = io.Copy(nc, nc) // ends when the client closes
			}()
		}
	}()
	for i := 0; i < clients; i++ {
		nc, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, nc)
	}
	return h, nil
}

// close stops the clients and the server and waits for every goroutine.
func (h *hostRef) close() {
	for _, nc := range h.conns {
		nc.Close()
	}
	h.lis.Close()
	h.wg.Wait()
}

func echoOnce(nc net.Conn, buf []byte) error {
	if _, err := nc.Write(buf); err != nil {
		return err
	}
	_, err := io.ReadFull(nc, buf)
	return err
}

// rate runs every client's closed loop for d and returns the round trips/s
// they completed together.
func (h *hostRef) rate(d time.Duration) (float64, error) {
	var total atomic.Int64
	errs := make([]error, len(h.conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, nc := range h.conns {
		wg.Add(1)
		go func(i int, nc net.Conn) {
			defer wg.Done()
			buf := make([]byte, echoSize)
			n := int64(0)
			for time.Now().Before(deadline) && errs[i] == nil {
				errs[i] = echoOnce(nc, buf)
				n++
			}
			total.Add(n)
		}(i, nc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("host reference: %w", err)
		}
	}
	return float64(total.Load()) / time.Since(t0).Seconds(), nil
}

// rtt is the median of n round trips of the first client alone, in ns: the
// floor under every exchange on this host.
func (h *hostRef) rtt(n int) (float64, error) {
	buf := make([]byte, echoSize)
	samples := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := echoOnce(h.conns[0], buf); err != nil {
			return 0, fmt.Errorf("echo: %w", err)
		}
		samples = append(samples, int64(time.Since(t0)))
	}
	slices.Sort(samples)
	return pct(samples, 0.5), nil
}

const (
	// cpuRefNominal is the cpuRef time every set-up sample is scaled to; about
	// what the host the bounds were set on needs, so scaled set-up times read
	// like raw ones.
	cpuRefNominal = 16 * time.Millisecond
	cpuRefLen     = 1 << 17 // floats: 1 MB, about the dataset's size
)

// cpuRef times filling buf (cpuRefLen floats) from a fixed generator and
// sorting it. Over 25 minutes of alternating it with set-ups of three
// workloads, 150 s medians of set-up time moved by 13% and those of set-up
// time over cpuRef time by 5%; the echo reference took out less (7.5%).
func cpuRef(buf []float64) time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float64(x >> 11)
	}
	slices.Sort(buf)
	return time.Since(t0)
}
