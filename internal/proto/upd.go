package proto

import (
	"zsim/internal/cache"
	"zsim/internal/directory"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
	"zsim/internal/metrics"
	"zsim/internal/wbuffer"
)

// updMode selects among the three update-based systems of paper §4.
type updMode int

const (
	// updPlain is RCupd: a simple Firefly-style write-update protocol with
	// a merge buffer combining writes to the same cache line.
	updPlain updMode = iota
	// updCompetitive is RCcomp: a sharer self-invalidates a line updated
	// CompThreshold times without an intervening local read.
	updCompetitive
	// updAdaptive is RCadapt: every write is a selective-write; the
	// directory keeps the active sharer set and a read by a non-sharer to a
	// block in the Special state signals a phase change, re-initializing
	// (invalidating) the sharer set.
	updAdaptive
)

type upd struct {
	base
	sb   []*wbuffer.StoreBuffer
	mb   []*wbuffer.MergeBuffer
	mode updMode
}

func newUpd(p memsys.Params, net *mesh.Net, mode updMode) *upd {
	u := &upd{base: newBase(p, net), mode: mode}
	for i := 0; i < p.Nodes(); i++ {
		u.sb = append(u.sb, wbuffer.NewStore(p.StoreBufEntries))
		u.mb = append(u.mb, wbuffer.NewMerge(p.MergeBufLines))
	}
	return u
}

// PublishMetrics harvests the base hardware and the store and merge
// buffers into s (implements metrics.Publisher).
func (u *upd) PublishMetrics(s *metrics.Snapshot) {
	u.base.PublishMetrics(s)
	publishStoreBuffers(s, u.sb)
	for _, mb := range u.mb {
		s.Add("wbuffer.merges", mb.Merges())
		s.Add("wbuffer.merge_evictions", mb.Evictions())
	}
}

func (u *upd) Name() memsys.Kind {
	switch u.mode {
	case updCompetitive:
		return memsys.KindRCComp
	case updAdaptive:
		return memsys.KindRCAdapt
	}
	return memsys.KindRCUpd
}

func (u *upd) Read(p int, addr memsys.Addr, size int, now Time) Time {
	u.ctr.CountRead(p)
	n := u.node(p)
	line := u.line(addr)
	if l, ok := u.caches[n].Lookup(line); ok {
		u.caches[n].Touch(line)
		l.Updates = 0 // a local read consumes pending updates
		if l.State == cache.Shared && l.ReadyAt > now {
			return l.ReadyAt - now
		}
		return 0
	}
	u.ctr.ReadMisses++
	if u.markSeen(n, line) {
		u.ctr.ColdMisses++
	}
	e := u.dir.Entry(line * memsys.Addr(u.p.LineSize))
	if u.mode == updAdaptive && e.State == directory.Special && !e.Sharers.Has(n) {
		// Phase change: re-initialize the sharing pattern (paper §4).
		t := u.reinit(n, line, e, now)
		return t - now
	}
	t := u.readFill(n, line, now)
	u.fill(n, line, cache.Shared, t)
	return t - now
}

// reinit invalidates the current active set and restarts it with the new
// reader, returning the reader's fill completion.
func (u *upd) reinit(p int, line memsys.Addr, e *directory.Entry, now Time) Time {
	home := u.home(line)
	t := u.ctrl(p, home, now) + u.p.DirLatency
	acks := t
	e.Sharers.ForEach(func(s int) {
		if s == p {
			return
		}
		at := u.ctrl(home, s, t)
		u.caches[s].Invalidate(line)
		u.ctr.Invalidations++
		u.ctr.SelfInvalidations++
		if ack := u.ctrl(s, home, at); ack > acks {
			acks = ack
		}
	})
	e.Sharers.Clear()
	e.Sharers.Add(p)
	e.State = directory.SharedClean // leaves Special until the next write
	t = u.data(home, p, acks+u.p.MemLatency)
	u.fill(p, line, cache.Shared, t)
	return t
}

func (u *upd) Write(p int, addr memsys.Addr, size int, now Time) Time {
	u.ctr.CountWrite(p)
	n := u.node(p)
	line := u.line(addr)
	// Put combines a write to an already-merging line for free and
	// otherwise buffers it; only a displaced victim costs anything.
	victim, evicted := u.mb[n].Put(line)
	if !evicted {
		return 0
	}
	// The displaced line's update transaction needs a store-buffer slot.
	u.ctr.WriteMisses++
	stall := u.sb[n].Reserve(now)
	completion := u.updateTxn(n, victim, now+stall)
	u.sb[n].Add(completion)
	return stall
}

// updateTxn sends the merged line to its home, which fans updates out to the
// sharers and collects acks; the returned time is when the writer's final
// ack arrives (the write is globally performed).
func (u *upd) updateTxn(p int, line memsys.Addr, t0 Time) Time {
	e := u.dir.Entry(line * memsys.Addr(u.p.LineSize))
	home := u.home(line)
	t := u.data(p, home, t0) + u.p.DirLatency
	e.Version++ // the fan-out makes new contents globally visible
	acks := t
	dropped := false
	e.Sharers.ForEach(func(s int) {
		if s == p {
			return
		}
		sl, ok := u.caches[s].Lookup(line)
		if !ok {
			// Stale presence bit (finite-cache eviction); drop it.
			e.Sharers.Remove(s)
			return
		}
		if u.p.FaultInjection == "drop-update" && !dropped {
			// Seeded defect: the update to one sharer is lost, leaving its
			// cached copy holding the previous version of the line.
			dropped = true
			return
		}
		ut := u.data(home, s, t)
		u.ctr.Updates++
		if sl.Updates > 0 {
			u.ctr.UselessUpdates++
		}
		sl.Updates++
		sl.Version = e.Version
		if u.mode == updCompetitive && sl.Updates >= u.p.CompThreshold {
			// Competitive self-invalidation: stop receiving updates.
			u.caches[s].Invalidate(line)
			e.Sharers.Remove(s)
			u.ctr.SelfInvalidations++
		}
		if ack := u.ctrl(s, home, ut); ack > acks {
			acks = ack
		}
	})
	e.Sharers.Add(p)
	u.enforcePointers(e, line, p, acks)
	if u.mode == updAdaptive {
		e.State = directory.Special
	} else if e.State == directory.Uncached {
		e.State = directory.SharedClean
	}
	u.markSeen(p, line)
	u.fill(p, line, cache.Shared, acks)
	return u.ctrl(home, p, acks)
}

func (u *upd) Release(p int, now Time) Time {
	// Flushing the merge buffer at synchronization points guarantees the
	// protocol's correctness (paper §4) and is the update systems' main
	// buffer-flush cost, on top of draining the store buffer.
	n := u.node(p)
	t := now
	for _, line := range u.mb[n].Flush() {
		u.ctr.WriteMisses++
		t += u.sb[n].Reserve(t)
		completion := u.updateTxn(n, line, t)
		u.sb[n].Add(completion)
	}
	t += u.sb[n].DrainStall(t)
	return t - now
}

// ReleaseWatermark implements memsys.TokenSystem. The update systems drain
// eagerly at releases, so after a Release the watermark equals the current
// time; between releases it reflects the store buffer's pending completions.
func (u *upd) ReleaseWatermark(p int, now Time) Time {
	return u.sb[u.node(p)].Watermark(now)
}

func (u *upd) Acquire(int, Time) Time { return 0 }
