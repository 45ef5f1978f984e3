package main

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"zsim/internal/cache"
	"zsim/internal/directory"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
	"zsim/internal/proto"
	"zsim/internal/sim"
	"zsim/internal/wbuffer"
)

// microBench is one layer microbenchmark: a public entry point of one
// package timed in isolation through testing.Benchmark.
type microBench struct {
	name string // metric name of its ns/op
	fn   func(b *testing.B)
}

// microResult is one microbenchmark's per-operation cost.
type microResult struct {
	name                string
	n                   int
	nsPerOp, bytesPerOp float64
	allocsPerOp         float64
}

// ring is a power-of-two table of seeded random values the benchmarks
// cycle through, so address and node choices stay off the timed path.
const ringLen = 4096

func ring(rng *rand.Rand, lo, hi int) []int {
	r := make([]int, ringLen)
	for i := range r {
		r[i] = lo + rng.Intn(hi-lo)
	}
	return r
}

// microBenches returns the layer microbenchmarks; seed draws their random
// addresses and node pairs.
func microBenches(seed int64) []microBench {
	rng := rand.New(rand.NewSource(derive(seed, saltMicro)))
	var out []microBench
	add := func(name string, fn func(b *testing.B)) { out = append(out, microBench{name, fn}) }

	// sim: the kernel's scheduling points.
	add("sim.sync_fast_ns", func(b *testing.B) {
		e := sim.NewEngine(4)
		e.Run(func(p *sim.Proc) {
			if p.ID() != 0 {
				// Park the rest of the machine far ahead so P0 keeps the
				// fast path for the whole loop.
				p.Advance(1 << 40)
				p.Sync()
				return
			}
			for i := 0; i < b.N; i++ {
				p.Advance(1)
				p.Sync()
			}
		})
	})
	for _, n := range []int{2, 256} {
		n := n
		add(fmt.Sprintf("sim.switch_ns.p%d", n), func(b *testing.B) {
			// Processors advance in lockstep, so every Sync hands off.
			e := sim.NewEngine(n)
			iters := b.N/n + 1
			e.Run(func(p *sim.Proc) {
				for i := 0; i < iters; i++ {
					p.Advance(1)
					p.Sync()
				}
			})
		})
	}
	add("sim.block_unblock_ns", func(b *testing.B) {
		e := sim.NewEngine(2)
		e.Run(func(p *sim.Proc) {
			if p.ID() == 0 {
				for i := 0; i < b.N; i++ {
					p.Block("zbench")
				}
				return
			}
			waiter := e.Proc(0)
			for woken := 0; woken < b.N; {
				if waiter.Blocked() {
					waiter.Unblock(p.Clock())
					woken++
				}
				p.Advance(1)
				p.Sync()
			}
		})
	})

	// memsys and directory: paged tables, first touch and warm.
	offsets := ring(rng, 0, 1<<12)
	add("memsys.paged_first_touch_ns", func(b *testing.B) {
		var t memsys.Paged[uint64]
		for i := 0; i < b.N; i++ {
			if i%256 == 0 {
				t = memsys.Paged[uint64]{}
			}
			*t.At(uint64(i%256)<<12 | uint64(offsets[i%ringLen])) = 1
		}
	})
	warmLines := ring(rng, 0, 1<<16)
	add("directory.entry_warm_ns", func(b *testing.B) {
		d := directory.New(16, 32)
		for _, l := range warmLines {
			d.Entry(memsys.Addr(l) * 32)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Entry(memsys.Addr(warmLines[i%ringLen]) * 32)
		}
	})
	add("directory.entry_cold_ns", func(b *testing.B) {
		const window = 1 << 18
		d := directory.New(16, 32)
		for i := 0; i < b.N; i++ {
			if i%window == 0 && i > 0 {
				d = directory.New(16, 32)
			}
			d.Entry(memsys.Addr(i%window) * 32)
		}
	})
	wide := ring(rng, 64, memsys.MaxProcs)
	add("directory.bitset_add_ns.wide", func(b *testing.B) {
		var s directory.Bitset
		for i := 0; i < b.N; i++ {
			s.Add(wide[i%ringLen])
			if i%1024 == 1023 {
				s.Clear()
			}
		}
	})

	// cache: the paper's infinite cache and matrix-small's 256-line 4-way.
	hits := ring(rng, 0, 2*ringLen)
	add("cache.lookup_ns.infinite", func(b *testing.B) {
		c := cache.NewInfinite()
		for l := 0; l < ringLen; l++ {
			c.Insert(memsys.Addr(l))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Lookup(memsys.Addr(hits[i%ringLen]))
		}
	})
	small := ring(rng, 0, 512)
	add("cache.lookup_ns.finite", func(b *testing.B) {
		c := cache.NewFinite(256, 4)
		for l := 0; l < 256; l++ {
			c.Insert(memsys.Addr(small[l]))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Lookup(memsys.Addr(small[i%ringLen]))
		}
	})
	add("cache.insert_ns.finite", func(b *testing.B) {
		c := cache.NewFinite(256, 4)
		for i := 0; i < b.N; i++ {
			c.Insert(memsys.Addr(hits[i%ringLen]))
		}
	})

	// mesh: Send over seeded random node pairs on the three networks the
	// workloads use.
	hier := memsys.Default(1024)
	hier.Topology = "hier"
	for _, nt := range []struct {
		name string
		p    memsys.Params
	}{{"mesh4x4", memsys.Default(16)}, {"mesh16x16", memsys.Default(256)}, {"hier1024", hier}} {
		nt := nt
		nodes := nt.p.Nodes()
		src, dst := ring(rng, 0, nodes), ring(rng, 1, nodes)
		add("mesh.send_ns."+nt.name, func(b *testing.B) {
			n := mesh.New(nt.p)
			var t memsys.Time
			for i := 0; i < b.N; i++ {
				s := src[i%ringLen]
				t += 8
				n.Send(s, (s+dst[i%ringLen])%nodes, 40, t)
			}
		})
	}

	// wbuffer: the store buffer's per-write reservation and the update
	// systems' one-line merge buffer.
	lat := ring(rng, 10, 60)
	add("wbuffer.reserve_add_ns", func(b *testing.B) {
		sb := wbuffer.NewStore(4)
		var now memsys.Time
		for i := 0; i < b.N; i++ {
			now += 3
			now += sb.Reserve(now)
			sb.Add(now + memsys.Time(lat[i%ringLen]))
		}
	})
	mergeLines := ring(rng, 0, 4)
	add("wbuffer.merge_put_ns", func(b *testing.B) {
		mb := wbuffer.NewMerge(1)
		for i := 0; i < b.N; i++ {
			mb.Put(memsys.Addr(mergeLines[i%ringLen]))
		}
	})

	// proto: one read through proto.New's MemSystem, per family.
	words := ring(rng, 0, 1<<15)
	for _, k := range []struct {
		name string
		kind memsys.Kind
	}{{"inv", memsys.KindRCInv}, {"upd", memsys.KindRCUpd}, {"zmc", memsys.KindZMachine}, {"pram", memsys.KindPRAM}} {
		k := k
		add("proto.read_hit_ns."+k.name, func(b *testing.B) {
			ms := newMemSystem(b, k.kind)
			var now memsys.Time
			for _, w := range words {
				ms.Read(0, memsys.Addr(w)*8, 8, now)
				now += 1000
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms.Read(0, memsys.Addr(words[i%ringLen])*8, 8, now)
				now += 2
			}
		})
		if k.kind == memsys.KindPRAM {
			continue // unit-cost memory has no misses
		}
		add("proto.read_miss_ns."+k.name, func(b *testing.B) {
			// Processor 0 reads a line nobody has cached yet; lines are
			// interleaved across the 16 homes.
			const window = 1 << 16
			ms := newMemSystem(b, k.kind)
			var now memsys.Time
			for i := 0; i < b.N; i++ {
				if i%window == 0 && i > 0 {
					b.StopTimer()
					ms = newMemSystem(b, k.kind)
					b.StartTimer()
				}
				ms.Read(0, memsys.Addr(i%window)*32, 8, now)
				now += 200
			}
		})
	}

	// machine: construction cost at the two machine sizes the workloads
	// build.
	for _, mp := range []struct {
		name string
		p    memsys.Params
	}{{"p16", memsys.Default(16)}, {"p1024", hier}} {
		mp := mp
		add("machine.new_ms."+mp.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := machine.New(memsys.KindRCInv, mp.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	return out
}

// newMemSystem builds a 16-node memory system of the given kind.
func newMemSystem(b *testing.B, kind memsys.Kind) memsys.MemSystem {
	p := memsys.Default(16)
	ms, err := proto.New(kind, p, mesh.New(p))
	if err != nil {
		b.Fatal(err)
	}
	return ms
}

// runMicro runs every microbenchmark for about benchtime each (a
// testing -benchtime value: "300ms" or "100x").
func runMicro(seed int64, benchtime string) ([]microResult, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("benchtime %q: %w", benchtime, err)
	}
	var out []microResult
	for _, mb := range microBenches(seed) {
		runtime.GC()
		r := testing.Benchmark(mb.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("microbenchmark %s failed", mb.name)
		}
		n := float64(r.N)
		out = append(out, microResult{
			name:        mb.name,
			n:           r.N,
			nsPerOp:     float64(r.T.Nanoseconds()) / n,
			bytesPerOp:  float64(r.MemBytes) / n,
			allocsPerOp: float64(r.MemAllocs) / n,
		})
	}
	return out, nil
}
