package fleet

// Handoff support: the cluster plane migrates individual streams
// between engines by capturing their chain states on the old owner and
// seeding them into the new owner, where the ingest plane's restored-
// state path (RestoredInterval + Add) claims them exactly as it claims
// a disk checkpoint after a restart. Nothing here persists anything —
// the coordinator is the transport.

import (
	"context"
	"errors"
	"sort"

	"repro/internal/core"
)

var errCaptureAborted = errors.New("fleet: state capture aborted (engine stopping)")

// CaptureStates snapshots the chain states of the named streams — nil
// ids means every stream ever added, finished ones included, the same
// coverage as a checkpoint — without persisting them. While the engine
// is running, each chain may only be read by its owning shard, so the
// capture parks on the wheel, which routes one marker through every
// shard's ring on its next tick (the wheel is the rings' only
// producer); the result reflects each stream's state at a batch
// boundary, and ctx bounds the wait. With the shards parked (before
// Run, or after it returned — including a cancelled Run) the chains are
// read directly. IDs with no matching stream are silently absent from
// the result.
func (e *Engine) CaptureStates(ctx context.Context, ids []string) (map[string]core.ChainState, error) {
	var want map[string]struct{}
	if ids != nil {
		want = make(map[string]struct{}, len(ids))
		for _, id := range ids {
			want[id] = struct{}{}
		}
	}
	req := &ckptReq{
		states: make(map[string]core.ChainState),
	}

	e.mu.Lock()
	req.perShard = make([][]*stream, len(e.shards))
	for h := handle(0); int(h) < e.nstreams; h++ {
		s := streamAt(e.blocks, h)
		if s.removed.Load() {
			continue
		}
		if want != nil {
			if _, ok := want[s.id]; !ok {
				continue
			}
		}
		req.perShard[s.shardIdx] = append(req.perShard[s.shardIdx], s)
	}
	running := e.running.Load()
	if running {
		if e.wheelDone {
			e.mu.Unlock()
			return nil, errCaptureAborted
		}
		req.wg.Add(len(e.shards))
		e.pendingCaptures = append(e.pendingCaptures, req)
		if e.idleSleep.Load() {
			wake(e.wheelWake) // the capture rides the very next tick
		}
	}
	e.mu.Unlock()

	if !running {
		for _, ss := range req.perShard {
			for _, s := range ss {
				if s.removed.Load() {
					continue
				}
				req.states[s.id] = s.chain.State()
			}
		}
		return req.states, nil
	}

	done := make(chan struct{})
	go func() {
		req.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if req.aborted.Load() {
		return nil, errCaptureAborted
	}
	req.mu.Lock()
	defer req.mu.Unlock()
	return req.states, nil
}

// SeedRestored installs externally supplied chain states for subsequent
// Adds to claim by ID — the coordinator-push counterpart of
// RestoreState's disk recovery. States are refused for IDs that are
// live or already used (their timeline authority is local), and an
// already-pending restored state is only replaced by a strictly newer
// one (higher interval): timelines advance monotonically, so an older
// snapshot arriving late must never rewind the resume position. It
// returns how many states were installed.
func (e *Engine) SeedRestored(states map[string]core.ChainState) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for id, st := range states {
		if _, used := e.ids[id]; used {
			continue
		}
		if cur, ok := e.restored[id]; ok && cur.Interval >= st.Interval {
			continue
		}
		if e.restored == nil {
			e.restored = make(map[string]core.ChainState)
		}
		e.restored[id] = st
		n++
	}
	return n
}

// Unfinished returns the IDs of every live (unfinished, unremoved)
// stream, sorted. An aborted shutdown logs these as abandoned so an
// operator knows exactly which timelines stopped mid-flight.
func (e *Engine) Unfinished() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.byID))
	for id := range e.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
