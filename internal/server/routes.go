package server

import "sync/atomic"

// routeChunkBits sizes a route chunk: the routes of 1<<routeChunkBits
// consecutive engine seqs share one chunk.
const (
	routeChunkBits = 10
	routeChunkLen  = 1 << routeChunkBits
	routeDirMin    = 16 // directory slots before the first growth
)

// routeChunk holds the routes of routeChunkLen consecutive engine seqs,
// starting at id<<routeChunkBits.
type routeChunk struct {
	id atomic.Uint64
	// unanswered counts the chunk's routes not yet taken. It starts at
	// routeChunkLen when the chunk is mapped, so it reaches zero only
	// after the writer has filled every slot and readers took them all.
	unanswered atomic.Int64
	slot       int // directory slot; writer-owned
	routes     [routeChunkLen]pendingBase
}

// routeDir is one generation of the chunk directory: an open-addressed
// table (power-of-two size, linear probing from id's home slot) that the
// writer publishes whole when it grows.
type routeDir struct {
	slots []atomic.Pointer[routeChunk]
}

// routeRing routes each result back to its session by the base's engine
// seq. The ingest loop is its only writer: add assigns consecutive seqs
// and stores each route at seq's index. Joiners read through take, with
// atomic loads only: the route itself was written before the base entered
// the engine, so the engine's own handoffs order it before the result.
//
// A chunk leaves the directory once every route in it was taken, and the
// writer reuses it for a later range of seqs, so steady state allocates
// nothing per base, and a base that is never answered pins its own chunk
// and nothing else.
type routeRing struct {
	dir atomic.Pointer[routeDir]
	_   [56]byte // keeps the writer's per-base stores off the readers' line

	// Writer-owned.
	next   uint64        // the next base's engine seq
	cur    *routeChunk   // chunk holding seq next-1
	mapped []*routeChunk // chunks in the directory, cur included
	free   []*routeChunk // unmapped chunks, every route cleared
}

// add registers a route and returns the engine seq it was stored under.
// Ingest loop only.
func (rt *routeRing) add(p pendingBase) uint64 {
	seq := rt.next
	rt.next++
	i := seq & (routeChunkLen - 1)
	if i == 0 {
		rt.cur = rt.start(seq >> routeChunkBits)
	}
	rt.cur.routes[i] = p
	return seq
}

// start maps a chunk for chunk id: it first unmaps every chunk whose
// routes were all taken, grows the directory if it would be more than
// half full, then reuses a free chunk or allocates one.
func (rt *routeRing) start(id uint64) *routeChunk {
	d := rt.dir.Load()
	keep := rt.mapped[:0]
	for _, c := range rt.mapped {
		if c.unanswered.Load() == 0 {
			d.slots[c.slot].Store(nil)
			rt.free = append(rt.free, c)
		} else {
			keep = append(keep, c)
		}
	}
	clear(rt.mapped[len(keep):])
	rt.mapped = keep
	if d == nil || 2*(len(rt.mapped)+1) > len(d.slots) {
		d = rt.grow(d)
	}
	var c *routeChunk
	if n := len(rt.free); n > 0 {
		c, rt.free[n-1] = rt.free[n-1], nil
		rt.free = rt.free[:n-1]
	} else {
		c = new(routeChunk)
	}
	c.id.Store(id)
	c.unanswered.Store(routeChunkLen)
	c.slot = d.place(id)
	d.slots[c.slot].Store(c)
	rt.mapped = append(rt.mapped, c)
	return c
}

// grow publishes a directory with room for every mapped chunk plus one at
// most half full, the mapped chunks placed anew. Readers still holding
// the old directory find their chunks there: the writer no longer changes
// it, and a chunk with a route not yet taken stays in it.
func (rt *routeRing) grow(old *routeDir) *routeDir {
	n := routeDirMin
	if old != nil {
		n = len(old.slots)
	}
	for 2*(len(rt.mapped)+1) > n {
		n *= 2
	}
	d := &routeDir{slots: make([]atomic.Pointer[routeChunk], n)}
	for _, c := range rt.mapped {
		c.slot = d.place(c.id.Load())
		d.slots[c.slot].Store(c)
	}
	rt.dir.Store(d)
	return d
}

// place returns the first empty slot at or after id's home slot.
func (d *routeDir) place(id uint64) int {
	mask := uint64(len(d.slots) - 1)
	i := id & mask
	for d.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	return int(i)
}

// take returns seq's route and clears it, so a reused chunk pins no
// session or span. A seq with no route (none was registered) yields the
// zero route. Safe from any goroutine, once per registered seq.
func (rt *routeRing) take(seq uint64) pendingBase {
	id := seq >> routeChunkBits
	d := rt.dir.Load()
	mask := uint64(len(d.slots) - 1)
	i := id & mask
	for range d.slots {
		if c := d.slots[i].Load(); c != nil && c.id.Load() == id {
			r := &c.routes[seq&(routeChunkLen-1)]
			p := *r
			*r = pendingBase{}
			c.unanswered.Add(-1)
			return p
		}
		i = (i + 1) & mask
	}
	return pendingBase{}
}
