package obs

// Shard returns a view of p that shifts every slot index by offset
// before forwarding. The sharded construction gives each shard its own
// n-slot server but wants one observer over all of them, so shard i's
// callbacks land on slots [i·n, (i+1)·n) of the shared probe — a shard
// axis encoded in the slot space, which keeps the single-writer
// discipline intact (each underlying slot still has exactly one
// driving goroutine) and lets Stats/Recorder work unchanged. Wrapping
// nil returns nil, preserving the objects' nil-probe fast path;
// wrapping a Shard adds the offsets.
func Shard(p Probe, offset int) Probe {
	if p == nil {
		return nil
	}
	return &shardProbe{inner: p, off: offset}
}

type shardProbe struct {
	inner Probe
	off   int
}

func (s *shardProbe) RegReads(slot, n int)     { s.inner.RegReads(slot+s.off, n) }
func (s *shardProbe) RegWrites(slot, n int)    { s.inner.RegWrites(slot+s.off, n) }
func (s *shardProbe) Event(slot int, e Event)  { s.inner.Event(slot+s.off, e) }
func (s *shardProbe) OpBegin(slot int, op Op)  { s.inner.OpBegin(slot+s.off, op) }
func (s *shardProbe) OpDone(slot int, op Op)   { s.inner.OpDone(slot+s.off, op) }
func (s *shardProbe) BatchDone(slot, size int) { s.inner.BatchDone(slot+s.off, size) }
func (s *shardProbe) EpochBegin(slot int)      { s.inner.EpochBegin(slot + s.off) }
func (s *shardProbe) EpochEnd(slot int)        { s.inner.EpochEnd(slot + s.off) }
