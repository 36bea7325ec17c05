// Quickstart: a three-replica Clock-RSM cluster in one process.
//
// It wires three replicas over the in-process transport with a few
// milliseconds of emulated network latency, replicates a handful of
// key-value updates, and shows that every replica converged to the same
// state.
//
//	go run ./examples/quickstart
package main

import (
	"context"
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
	const n = 3
	// 2 ms one-way latency between replicas — a small LAN.
	hub := transport.NewHub(n, transport.HubOptions{
		Latency: wan.Uniform(n, 2*time.Millisecond),
	})
	defer hub.Close()

	spec := []types.ReplicaID{0, 1, 2}
	stores := make([]*kvstore.Store, n)
	hosts := make([]*node.Host, n)

	for i := 0; i < n; i++ {
		// One host per replica, running a single replication group.
		h, err := node.NewHost(types.ReplicaID(i), spec, hub.Endpoint(types.ReplicaID(i)), node.HostOptions{})
		if err != nil {
			return err
		}
		stores[i] = kvstore.New()
		nd := h.Group(0)
		app := &rsm.App{SM: stores[i]}
		if err := h.Bind(0, app); err != nil { // execution results resolve ProposeKey futures
			return err
		}
		nd.SetProtocol(core.New(nd, app, core.Options{
			ClockTimeInterval: 5 * time.Millisecond,
		}))
		hosts[i] = h
		if err := h.Start(); err != nil {
			return err
		}
		defer h.Stop()
	}

	// Issue a few updates, each at a different replica — Clock-RSM is
	// multi-leader, so no forwarding happens.
	ops := []struct {
		at      types.ReplicaID
		key     string
		payload []byte
		desc    string
	}{
		{0, "city", kvstore.Put("city", []byte("Lausanne")), `PUT city=Lausanne at r0`},
		{1, "lake", kvstore.Put("lake", []byte("Léman")), `PUT lake=Léman at r1`},
		{2, "city", kvstore.Get("city"), `GET city at r2`},
		{1, "city", kvstore.Put("city", []byte("Lugano")), `PUT city=Lugano at r1`},
		{0, "city", kvstore.Get("city"), `GET city at r0`},
	}
	ctx := context.Background()
	for _, op := range ops {
		start := time.Now()
		fut, err := hosts[op.at].ProposeKey(ctx, op.key, op.payload)
		if err != nil {
			return err
		}
		res, err := fut.Result()
		if err != nil {
			return err
		}
		fmt.Printf("%-26s -> %-10q committed in %v\n", op.desc, res.Value, time.Since(start).Round(time.Millisecond))
	}

	// All replicas hold the same state.
	time.Sleep(50 * time.Millisecond) // let trailing commits land
	for i, s := range stores {
		city, _ := s.Lookup("city")
		lake, _ := s.Lookup("lake")
		fmt.Printf("replica r%d state: city=%q lake=%q (%d keys)\n", i, city, lake, s.Len())
	}
	return nil
}
