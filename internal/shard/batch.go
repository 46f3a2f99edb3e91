package shard

// batch.go is the pool half of the batched request API: callers submit an
// ordered list of clip references (optionally ranged) and get per-item
// outcomes back. Items are grouped by owning shard and the groups proceed
// concurrently; within a shard the whole group takes the staged path
// (staged.go) once, so the engine work runs under a bounded number of lock
// acquisitions instead of one per item — zero when every item is a
// published-view hit, one when nothing needs fetching, two when misses were
// fetched outside the lock.

import (
	"sync"

	"mediacache/internal/core"
	"mediacache/internal/media"
)

// BatchItem is one reference in a RequestBatch call.
type BatchItem struct {
	// ID is the referenced clip.
	ID media.ClipID
	// Ranged selects the partial-content form: bytes [Start, Start+Length)
	// are referenced, with negative Length meaning "to the end of the
	// clip". When false the whole clip is referenced and Start/Length are
	// ignored.
	Ranged bool
	Start  media.Bytes
	Length media.Bytes
}

// BatchResult is the outcome of one BatchItem, in the same position.
type BatchResult struct {
	// Outcome classifies the servicing. For ranged items it is
	// Range.Outcome, duplicated here so callers can switch uniformly.
	Outcome core.Outcome
	// Range carries the byte-level accounting for ranged items; zero for
	// whole-clip items.
	Range core.RangeResult
	// Err is the per-item engine error, if any (unknown clip, policy
	// misbehaviour). Other items in the batch are unaffected.
	Err error
}

// RequestBatch services an ordered list of references and returns one
// result per item, positionally. Items are routed to their owning shards
// and shard groups proceed concurrently; items within a shard group are
// serviced in submission order. Outcomes and statistics are exactly those
// of issuing the items individually — the batch form only amortizes lock
// acquisitions and, like Request, coalesces concurrent fetches of the same
// clip through the flight group.
func (p *Pool) RequestBatch(items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	p.batches.Add(1)
	if len(p.shards) == 1 {
		p.batchShard(p.shards[0], items, nil, out)
		return out
	}
	groups := make([][]int, len(p.shards))
	for i := range items {
		si := p.ShardFor(items[i].ID)
		groups[si] = append(groups[si], i)
	}
	var wg sync.WaitGroup
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *poolShard, idxs []int) {
			defer wg.Done()
			p.batchShard(s, items, idxs, out)
		}(p.shards[si], idxs)
	}
	wg.Wait()
	return out
}

// groupLen and itemAt read a shard group: idxs lists the group's positions
// in items in submission order, and nil means the group is all of items.
func groupLen(items []BatchItem, idxs []int) int {
	if idxs == nil {
		return len(items)
	}
	return len(idxs)
}

func itemAt(idxs []int, k int) int {
	if idxs == nil {
		return k
	}
	return idxs[k]
}

// batchShard services one shard's slice of a batch. idxs lists the item
// indices owned by this shard in submission order; nil means all of them
// (the single-shard pool).
func (p *Pool) batchShard(s *poolShard, items []BatchItem, idxs []int, out []BatchResult) {
	// Pure-hit groups: every item whole-clip and in the published view.
	// Touches enqueue under one buffer-lock acquisition; the engine lock is
	// not taken at all.
	if p.fastPath {
		n := groupLen(items, idxs)
		var buf [32]media.ClipID // keeps the usual group's ids off the heap
		ids := buf[:0]
		for k := 0; k < n; k++ {
			i := itemAt(idxs, k)
			// Item k's touch replays k ticks after the already-pending ones,
			// so its deadline is checked that many ticks ahead.
			if items[i].Ranged || !p.fastHitOK(s, items[i].ID, int64(k)) {
				break
			}
			ids = append(ids, items[i].ID)
			out[i] = BatchResult{Outcome: core.Hit}
		}
		if len(ids) == n {
			p.recordTouch(s, ids...)
			return
		}
	}
	p.serve(s, items, idxs, out)
}
