// Client API: futures, cancellation and tiered reads.
//
// A three-replica Clock-RSM cluster runs in one process over the
// in-process transport. All commands enter through the host's client
// API — ProposeKey returns a *node.Future, ReadKey serves reads — and
// the example walks through each of its behaviors:
//
//  1. a single proposal awaited with Future.Result;
//
//  2. cancellation: a context deadline abandons the wait (the command
//     may still commit, but at most once, and its result is dropped);
//
//  3. consistency-tiered reads served from the stable prefix — no
//     PREPARE broadcast: Linearizable (parks until the executed
//     watermark covers the read's capture time), Sequential (immediate,
//     monotonic through a Session token across replicas), and Stale
//     (immediate from the caller's goroutine, with a staleness bound).
//
// Run it:
//
//	go run ./examples/client
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/node"
	"clockrsm/internal/rsm"
	"clockrsm/internal/transport"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// Three single-group hosts.
	const n = 3
	hub := transport.NewHub(n, transport.HubOptions{
		Latency: wan.Uniform(n, 2*time.Millisecond),
	})
	defer hub.Close()
	spec := []types.ReplicaID{0, 1, 2}
	hosts := make([]*node.Host, n)
	for i := 0; i < n; i++ {
		h, err := node.NewHost(types.ReplicaID(i), spec, hub.Endpoint(types.ReplicaID(i)), node.HostOptions{})
		if err != nil {
			return err
		}
		nd := h.Group(0)
		app := &rsm.App{SM: kvstore.New()}
		if err := h.Bind(0, app); err != nil { // execution results resolve ProposeKey futures
			return err
		}
		nd.SetProtocol(core.New(nd, app, core.Options{ClockTimeInterval: 5 * time.Millisecond}))
		hosts[i] = h
		if err := h.Start(); err != nil {
			return err
		}
		// Stop resolves whatever is still unresolved with
		// node.ErrStopped — no waiter ever hangs across shutdown.
		defer h.Stop()
	}

	// 1. One proposal, awaited.
	start := time.Now()
	fut, err := hosts[0].ProposeKey(ctx, "city", kvstore.Put("city", []byte("Lausanne")))
	if err != nil {
		return err
	}
	res, err := fut.Result()
	if err != nil {
		return err
	}
	fmt.Printf("PUT city=Lausanne           -> id %v, committed in %v\n",
		res.ID, time.Since(start).Round(time.Millisecond))

	// 2. Cancellation: an expired context abandons the wait. The
	// command may still commit — at most once — but its result is
	// dropped; the future resolves node.ErrCanceled.
	cctx, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	fut, err = hosts[1].ProposeKey(ctx, "city", kvstore.Put("city", []byte("Lugano")))
	if err != nil {
		return err
	}
	if _, err := fut.Wait(cctx); errors.Is(err, node.ErrCanceled) {
		fmt.Println("canceled proposal           -> ErrCanceled (commit, if any, at most once)")
	} else {
		fmt.Println("canceled proposal           -> commit raced the cancellation")
	}

	// 3. Consistency-tiered reads, served from the local stable prefix
	// (no replication traffic at any tier).
	//
	// Linearizable: observes every write that completed before the read
	// began — the PUT above included — at any replica.
	start = time.Now()
	rres, err := hosts[2].ReadKey(ctx, "city", kvstore.Get("city"), node.Linearizable)
	if err != nil {
		return err
	}
	fmt.Printf("linearizable read at r2    -> city=%s in %v (watermark age %v)\n",
		rres.Value, time.Since(start).Round(time.Microsecond), rres.Age.Round(time.Microsecond))

	// Sequential: immediate, and monotonic across replicas through the
	// session — the second read (at another replica) waits, if needed,
	// until that replica has caught up to what the first read saw.
	var sess node.Session
	rres, err = hosts[0].ReadKey(ctx, "city", kvstore.Get("city"), node.Sequential(&sess))
	if err != nil {
		return err
	}
	fmt.Printf("sequential read at r0      -> city=%s (session token %d)\n", rres.Value, sess.Watermark())
	rres, err = hosts[1].ReadKey(ctx, "city", kvstore.Get("city"), node.Sequential(&sess))
	if err != nil {
		return err
	}
	fmt.Printf("sequential read at r1      -> city=%s (never older than r0's)\n", rres.Value)

	// Stale: served from the caller's goroutine without touching the
	// event loop; the result reports how stale it may be, and a bound
	// turns excessive staleness into node.ErrTooStale.
	rres, err = hosts[1].ReadKey(ctx, "city", kvstore.Get("city"), node.Stale(time.Minute))
	if err != nil {
		return err
	}
	fmt.Printf("stale read at r1           -> city=%s (≤ %v old)\n", rres.Value, rres.Age.Round(time.Microsecond))
	return nil
}
