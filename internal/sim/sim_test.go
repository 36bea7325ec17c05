package sim

import (
	"testing"
	"time"

	"clockrsm/internal/msg"
	"clockrsm/internal/rsm"
	"clockrsm/internal/types"
	"clockrsm/internal/wan"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(ms(30), func() { got = append(got, 3) })
	e.After(ms(10), func() { got = append(got, 1) })
	e.After(ms(20), func() { got = append(got, 2) })
	e.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != ms(30) {
		t.Errorf("Now = %v", e.Now())
	}
	if e.Steps() != 3 {
		t.Errorf("Steps = %d", e.Steps())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(ms(5), func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v", got)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.After(ms(10), func() { ran++ })
	e.After(ms(20), func() { ran++ })
	e.RunUntil(ms(15))
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if e.Now() != ms(15) {
		t.Errorf("Now = %v, want 15ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.RunUntil(ms(25))
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.After(ms(10), func() {
		times = append(times, e.Now())
		e.After(ms(5), func() { times = append(times, e.Now()) })
	})
	e.RunUntilIdle()
	if len(times) != 2 || times[0] != ms(10) || times[1] != ms(15) {
		t.Errorf("times = %v", times)
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	var at time.Duration = -1
	e.After(ms(10), func() {
		e.At(ms(1), func() { at = e.Now() }) // in the past
	})
	e.RunUntilIdle()
	if at != ms(10) {
		t.Errorf("past event ran at %v, want 10ms", at)
	}
}

// recorder collects deliveries for network tests.
type recorder struct {
	from []types.ReplicaID
	at   []time.Duration
	eng  *Engine
}

func (r *recorder) handler() Handler {
	return func(from types.ReplicaID, m msg.Message) {
		r.from = append(r.from, from)
		r.at = append(r.at, r.eng.Now())
	}
}

func TestNetworkDelivery(t *testing.T) {
	e := NewEngine()
	lat := wan.NewMatrix(2)
	lat.Set(0, 1, ms(40))
	n := NewNetwork(e, lat, 0, nil)
	rec := &recorder{eng: e}
	n.Register(1, rec.handler())
	n.Send(0, 1, &msg.Commit{Slot: 1})
	e.RunUntilIdle()
	if len(rec.at) != 1 || rec.at[0] != ms(40) {
		t.Errorf("delivery at %v", rec.at)
	}
	if n.Sent != 1 || n.Delivered != 1 {
		t.Errorf("counters sent=%d delivered=%d", n.Sent, n.Delivered)
	}
}

func TestNetworkFIFOPerLink(t *testing.T) {
	e := NewEngine()
	lat := wan.NewMatrix(2)
	lat.Set(0, 1, ms(40))
	n := NewNetwork(e, lat, ms(30), newTestRand())
	rec := &recorder{eng: e}
	n.Register(1, rec.handler())
	var slots []uint64
	n.Register(1, func(from types.ReplicaID, m msg.Message) {
		slots = append(slots, m.(*msg.Commit).Slot)
	})
	for i := uint64(0); i < 50; i++ {
		i := i
		e.After(time.Duration(i)*time.Millisecond, func() {
			n.Send(0, 1, &msg.Commit{Slot: i})
		})
	}
	e.RunUntilIdle()
	if len(slots) != 50 {
		t.Fatalf("delivered %d/50", len(slots))
	}
	for i, s := range slots {
		if s != uint64(i) {
			t.Fatalf("FIFO violated: %v", slots)
		}
	}
}

func TestNetworkCrashDropsMessages(t *testing.T) {
	e := NewEngine()
	lat := wan.Uniform(2, ms(10))
	n := NewNetwork(e, lat, 0, nil)
	rec := &recorder{eng: e}
	n.Register(1, rec.handler())

	n.Crash(1)
	n.Send(0, 1, &msg.Commit{Slot: 1})
	e.RunUntilIdle()
	if len(rec.at) != 0 {
		t.Error("message delivered to crashed replica")
	}
	n.Restart(1)
	n.Send(0, 1, &msg.Commit{Slot: 2})
	e.RunUntilIdle()
	if len(rec.at) != 1 {
		t.Error("message not delivered after restart")
	}
}

func TestNetworkInFlightLostOnCrash(t *testing.T) {
	e := NewEngine()
	lat := wan.Uniform(2, ms(10))
	n := NewNetwork(e, lat, 0, nil)
	rec := &recorder{eng: e}
	n.Register(1, rec.handler())
	n.Send(0, 1, &msg.Commit{Slot: 1}) // in flight
	e.After(ms(5), func() { n.Crash(1) })
	e.RunUntilIdle()
	if len(rec.at) != 0 {
		t.Error("in-flight message delivered to replica that crashed before arrival")
	}
}

func TestNetworkPartition(t *testing.T) {
	e := NewEngine()
	lat := wan.Uniform(3, ms(10))
	n := NewNetwork(e, lat, 0, nil)
	rec1 := &recorder{eng: e}
	rec2 := &recorder{eng: e}
	n.Register(1, rec1.handler())
	n.Register(2, rec2.handler())

	n.Partition(0, 1)
	n.Send(0, 1, &msg.Commit{Slot: 1})
	n.Send(0, 2, &msg.Commit{Slot: 1})
	e.RunUntilIdle()
	if len(rec1.at) != 0 {
		t.Error("message crossed partition")
	}
	if len(rec2.at) != 1 {
		t.Error("unrelated link affected by partition")
	}
	// Healing delivers the held message (eventual delivery, Section
	// II-A) ahead of new traffic.
	n.Heal(0, 1)
	n.Send(0, 1, &msg.Commit{Slot: 2})
	var slots []uint64
	n.Register(1, func(from types.ReplicaID, m msg.Message) {
		slots = append(slots, m.(*msg.Commit).Slot)
	})
	e.RunUntilIdle()
	if len(slots) != 2 || slots[0] != 1 || slots[1] != 2 {
		t.Errorf("delivery after heal = %v, want held message first", slots)
	}
}

// echoProto counts Submit/Deliver calls for cluster tests.
type echoProto struct {
	env      rsm.Env
	got      int
	submits  int
	started  bool
	timerRan bool
}

func (p *echoProto) Start() { p.started = true }

func (p *echoProto) Submit(cmd types.Command) {
	p.submits++
	rsm.Broadcast(p.env, p.env.Spec(), &msg.Commit{Slot: cmd.ID.Seq})
}

func (p *echoProto) Deliver(from types.ReplicaID, m msg.Message) { p.got++ }

func (p *echoProto) NextCommandID() types.CommandID {
	return types.CommandID{Origin: p.env.ID(), Seq: uint64(p.submits + 1)}
}

func TestClusterWiring(t *testing.T) {
	c := NewCluster(wan.Uniform(3, ms(10)), ClusterOptions{})
	protos := make([]*echoProto, 3)
	for i, r := range c.Replicas {
		protos[i] = &echoProto{env: r}
		r.SetProtocol(protos[i])
	}
	c.Start()
	for _, p := range protos {
		if !p.started {
			t.Fatal("protocol not started")
		}
	}
	c.Replicas[0].Submit(types.Command{ID: types.CommandID{Origin: 0, Seq: 1}})
	c.Eng.RunUntilIdle()
	if protos[0].submits != 1 {
		t.Error("submit not routed")
	}
	if protos[1].got != 1 || protos[2].got != 1 {
		t.Errorf("broadcast delivered %d/%d", protos[1].got, protos[2].got)
	}
	if protos[0].got != 0 {
		t.Error("broadcast echoed to sender")
	}
}

func TestClusterClockSkewAndMonotonicity(t *testing.T) {
	c := NewCluster(wan.Uniform(2, ms(10)), ClusterOptions{
		Skews: []time.Duration{0, ms(5)},
	})
	for _, r := range c.Replicas {
		r.SetProtocol(&echoProto{env: r})
	}
	c.Eng.RunUntil(ms(100))
	r0, r1 := c.Replicas[0], c.Replicas[1]
	if r1.Clock()-r0.Clock() < int64(ms(4)) {
		t.Errorf("skew not applied: r0=%d r1=%d", r0.Clock(), r1.Clock())
	}
	a := r0.Clock()
	b := r0.Clock()
	if b <= a {
		t.Error("replica clock not strictly increasing at fixed virtual time")
	}
}

func TestClusterCrashInvalidatesTimers(t *testing.T) {
	c := NewCluster(wan.Uniform(2, ms(10)), ClusterOptions{})
	p := &echoProto{env: c.Replicas[0]}
	c.Replicas[0].SetProtocol(p)
	c.Replicas[1].SetProtocol(&echoProto{env: c.Replicas[1]})
	c.Start()

	c.Replicas[0].After(ms(50), func() { p.timerRan = true })
	c.Eng.RunUntil(ms(10))
	c.Crash(0)
	c.Eng.RunUntilIdle()
	if p.timerRan {
		t.Error("timer fired after crash")
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() uint64 {
		c := NewCluster(wan.EC2Matrix([]wan.Site{wan.CA, wan.VA, wan.IR}), ClusterOptions{
			Jitter: ms(3), Seed: 42,
		})
		for _, r := range c.Replicas {
			r.SetProtocol(&echoProto{env: r})
		}
		c.Start()
		for i := 0; i < 20; i++ {
			i := i
			c.Eng.After(time.Duration(i)*ms(7), func() {
				c.Replicas[i%3].Submit(types.Command{ID: types.CommandID{Origin: types.ReplicaID(i % 3), Seq: uint64(i)}})
			})
		}
		c.Eng.RunUntilIdle()
		return c.Eng.Steps()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic runs: %d vs %d steps", a, b)
	}
}
