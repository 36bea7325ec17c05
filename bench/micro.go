package main

import (
	"math/rand"
	"runtime"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/msg"
	"clockrsm/internal/reshard"
	"clockrsm/internal/rpc"
	"clockrsm/internal/rsm"
	"clockrsm/internal/sim"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

// micro holds the timed loops over each package's public functions, on
// the workload's own request shapes. They run with the cluster torn
// down, so nothing competes for the cores.
type micro struct {
	rpcNs, rpcAllocs float64
	encNs, encAllocs float64
	decNs, decAllocs float64
	prepareBytes     float64
	simNs            float64
	lookupNs         float64
	genNs            float64
}

// timeLoop runs fn in batches until at least d has passed and returns
// the time and heap allocations per call.
func timeLoop(d time.Duration, fn func()) (ns, allocs float64) {
	const batch = 512
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(el) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

func runMicro(w *workload, seed int64, d time.Duration) micro {
	var m micro
	g := newLoadgen(w, seed, nil, nil)
	key := g.keys[len(g.keys)/2]
	value := make([]byte, w.valueSize)
	g.fill(value, makeTag(0, 1, false), 1)

	// Front-door framing: one PUT request and its reply (the previous
	// value), encoded and decoded.
	req := rpc.Request{ID: 1, Verb: rpc.VPut, Key: []byte(key), Value: value}
	resp := rpc.Response{ID: 1, Status: rpc.StatusOK, Value: value}
	var buf []byte
	var reqOut rpc.Request
	var respOut rpc.Response
	m.rpcNs, m.rpcAllocs = timeLoop(d, func() {
		buf = rpc.AppendRequest(buf[:0], &req)
		if err := rpc.DecodeRequest(buf[4:], &reqOut); err != nil {
			panic(err) // the encoder's own output
		}
		buf = rpc.AppendResponse(buf[:0], &resp)
		if err := rpc.DecodeResponse(buf[4:], &respOut); err != nil {
			panic(err)
		}
	})

	// The workload's PREPARE through the replica codec.
	prep := &msg.Prepare{
		Epoch: 1,
		TS:    types.Timestamp{Wall: time.Now().UnixNano(), Node: 1},
		Cmd:   types.Command{ID: types.CommandID{Origin: 1, Seq: 1 << 20}, Payload: kvstore.Put(key, value)},
		Sent:  1 << 20,
	}
	var enc []byte
	m.encNs, m.encAllocs = timeLoop(d, func() { enc = msg.EncodeTo(enc[:0], prep) })
	m.prepareBytes = float64(len(enc))
	m.decNs, m.decAllocs = timeLoop(d, func() {
		dm, err := msg.DecodeRecycled(enc)
		if err != nil {
			panic(err)
		}
		msg.Recycle(dm)
	})

	// Pure protocol CPU: commands through three replicas on virtual
	// time, zero delay, no state machine, no real transport or log.
	c := sim.NewCluster(wan.Uniform(3, 0), sim.ClusterOptions{})
	reps := make([]*core.Replica, len(c.Replicas))
	for i, r := range c.Replicas {
		reps[i] = core.New(r, &rsm.App{SM: rsm.NopSM{}}, core.Options{})
		r.SetProtocol(reps[i])
	}
	c.Start()
	var seq uint64
	m.simNs, _ = timeLoop(d, func() {
		seq++
		o := int(seq % 3)
		reps[o].Submit(types.Command{ID: types.CommandID{Origin: types.ReplicaID(o), Seq: seq}, Payload: prep.Cmd.Payload})
		c.Eng.RunUntilIdle()
	})

	// Key-to-group routing over the workload's keys.
	holder := reshard.NewHolder(reshard.Legacy(w.groups), "")
	var i int
	var sink types.GroupID
	m.lookupNs, _ = timeLoop(d, func() {
		i++
		sink += holder.Load().Group(g.keys[i%len(g.keys)])
	})
	_ = sink

	// The generator's own work per request: key choice and value bytes.
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if !w.open {
		zipf = rand.NewZipf(rng, w.zipf, 1, uint64(len(g.keys)-1))
	}
	order := rng.Perm(w.keys)
	var n uint64
	m.genNs, _ = timeLoop(d/4, func() {
		n++
		k := order[int(n)%len(order)]
		if zipf != nil {
			k = int(zipf.Uint64())
			rng.Float64()
		}
		g.seqs[k]++
		g.fill(value, makeTag(0, n, false), g.seqs[k])
	})
	return m
}
