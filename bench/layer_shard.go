package main

import (
	"time"

	"chunks/internal/shard"
)

// shardProbe holds a connection table of the workload's population and
// times what core does per datagram against it: find the shard, lock,
// Get, Touch, unlock. Building the table yields the establishment cost
// and the bytes one entry takes; ticking it yields the timer cost.
type shardProbe struct {
	idleProbe
	li  *layerInput
	eng *shard.Engine[int]
	out map[string]float64
}

const (
	shardIdleTicks = 30000 // 10 minutes of 20 ms ticks: leases armed, never due
	shardTicks     = 256
)

func newShardProbe(li *layerInput) *shardProbe {
	p := &shardProbe{li: li, out: map[string]float64{}}
	keys := make([]shard.Key, li.population)
	for i := range keys {
		keys[i] = shard.Key{CID: uint32(i + 1), Addr: scaleFrom(i).String()}
	}
	before := liveHeap()
	p.eng = shard.New(shard.Config[int]{IdleTicks: shardIdleTicks})
	start := time.Now()
	for i, k := range keys {
		sh := p.eng.Shard(k)
		sh.Lock()
		_, _ = sh.Establish(k, func() (int, error) { return i, nil })
		sh.Unlock()
	}
	p.out["shard.establish_ns"] = float64(time.Since(start)) / float64(len(keys))
	p.out["shard.bytes_per_entry"] = (liveHeap() - before) / float64(len(keys))
	start = time.Now()
	for i := 0; i < shardTicks; i++ {
		p.eng.Tick()
	}
	p.out["shard.tick_ns"] = float64(time.Since(start)) / shardTicks
	return p
}

func (p *shardProbe) name() string   { return "shard.lookup" }
func (p *shardProbe) parent() string { return "core.inject" }
func (p *shardProbe) batch(lo, hi int) {
	for i := lo; i < hi; i++ {
		k := shard.Key{CID: p.li.cids[i], Addr: p.li.addrs[i]}
		sh := p.eng.Shard(k)
		sh.Lock()
		if _, ok := sh.Get(k); ok {
			sh.Touch(k)
		}
		sh.Unlock()
	}
}

func (p *shardProbe) extras(into map[string]float64) {
	for _, name := range []string{"shard.establish_ns", "shard.bytes_per_entry", "shard.tick_ns"} {
		into[name] = p.out[name]
	}
}
