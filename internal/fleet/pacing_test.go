package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/supervise"
)

// fakeClock is a manual clock for the wheel's now/sleepUntil seam. The
// wheel parks on it and announces each park (with its deadline) on
// parked; the test moves time with set. A poke on the engine's
// wheelWake releases a parked wheel without moving time, as it does on
// the real clock.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	parked chan time.Time
	moved  chan struct{}
}

func newFakeClock(e *Engine) *fakeClock {
	c := &fakeClock{
		t:      time.Unix(1000, 0),
		parked: make(chan time.Time),
		moved:  make(chan struct{}, 1),
	}
	e.now = c.now
	e.sleepUntil = func(ctx context.Context, until time.Time) { c.sleep(ctx, e.wheelWake, until) }
	return c
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
	wake(c.moved)
}

func (c *fakeClock) sleep(ctx context.Context, poke <-chan struct{}, until time.Time) {
	if !c.now().Before(until) {
		return
	}
	select {
	case c.parked <- until:
	case <-poke:
		return
	case <-ctx.Done():
		return
	}
	for {
		select {
		case <-c.moved:
			if !c.now().Before(until) {
				return
			}
		case <-poke:
			return
		case <-ctx.Done():
			return
		}
	}
}

// awaitPark returns the deadline of the wheel's next park.
func (c *fakeClock) awaitPark(t *testing.T) time.Time {
	t.Helper()
	select {
	case until := <-c.parked:
		return until
	case <-time.After(10 * time.Second):
		t.Fatal("wheel never parked")
		return time.Time{}
	}
}

// orderedSource checks the wheel's delivery contract from the stream's
// side: intervals are read in order with none skipped or repeated, and
// the stream is never read again before its previous interval's verdict
// was emitted — which is what a batch carrying it twice would do.
type orderedSource struct {
	t    *testing.T
	id   string
	src  source.Source
	next int
	open atomic.Bool
}

func (o *orderedSource) Read(ctx context.Context, interval int) ([]uint64, error) {
	if o.open.Swap(true) {
		o.t.Errorf("stream %s: interval %d read before the previous verdict (stream twice in one batch)", o.id, interval)
	}
	if interval != o.next {
		o.t.Errorf("stream %s: read interval %d, want %d", o.id, interval, o.next)
	}
	o.next = interval + 1
	return o.src.Read(ctx, interval)
}

func (o *orderedSource) verdict(core.Verdict) { o.open.Store(false) }

// TestPacedWheelCatchesUp drives a paced engine through the clock seam:
// every sleep overshoots its deadline by 1 ms (one tick) and one wake
// comes 50 ms late. Every tick must run exactly once and in order, the
// rotation count must equal elapsed ÷ Interval, no batch may carry a
// stream twice, lateness and catch-up must be accounted exactly, and
// checkpoint markers must still fire every CheckpointEvery rotations.
func TestPacedWheelCatchesUp(t *testing.T) {
	const (
		slots     = 8
		interval  = 8 * time.Millisecond // 1 ms ticks
		rotations = 20
		every     = 4
		streams   = 32
		overshoot = time.Millisecond
		stall     = 50 * time.Millisecond
	)
	store, err := core.NewCheckpointStore(t.TempDir(), "fleet", StateVersion)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{
		Shards:          2,
		WheelSlots:      slots,
		Interval:        interval,
		Policy:          supervise.Block,
		Checkpoint:      store,
		CheckpointEvery: every,
	})
	clk := newFakeClock(e)
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%02d", i)
		src := &orderedSource{t: t, id: id, src: source.NewSynthetic(uint64(i+1), 4)}
		if err := e.Add(StreamConfig{ID: id, Source: src, OnVerdict: src.verdict}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := clk.now()
	end := start.Add(rotations * interval)
	d := interval / slots
	run := make(chan error, 1)
	go func() { run <- e.Run(ctx) }()

	// ckptsBy is how many checkpoint ticks fall at or before t.
	ckptsBy := func(t time.Time) int64 {
		return int64(t.Sub(start) / (every * interval))
	}
	var wantCatchUp int64
	for wakes := 1; ; wakes++ {
		until := clk.awaitPark(t)
		// The wheel has run every tick due before until. Let any
		// checkpoint among them land before moving on, so collectors
		// persist in rotation order.
		ran := until.Add(-d)
		waitUntil(t, "checkpoints written", func() bool { return e.ckptOK.Load() >= ckptsBy(ran) })
		next := until.Add(overshoot)
		if wakes == 5 {
			next = next.Add(stall)
		}
		if !next.Before(end) {
			next = end
		}
		// Ticks due in [until, next] run on this wake: the first is the
		// one the wheel slept for, the rest are catch-up.
		wantCatchUp += int64(next.Sub(until) / d)
		clk.set(next)
		if next.Equal(end) {
			break
		}
	}
	clk.awaitPark(t) // every tick due by end has run
	waitUntil(t, "shards caught up", func() bool {
		snap := e.Stats(false)
		return snap.Verdicts == streams*rotations+streams/slots && snap.CheckpointsWritten == rotations/every
	})
	cancel()
	if err := <-run; err != context.Canceled {
		t.Fatalf("Run: %v", err)
	}

	if got, want := e.tick.Load(), int64(rotations*slots+1); got != want {
		t.Fatalf("ran %d ticks, want %d (one per deadline in [start, end])", got, want)
	}
	snap := e.Stats(true)
	if elapsed := clk.now().Sub(start); snap.Rotations != int64(elapsed/interval) {
		t.Fatalf("Rotations = %d, want elapsed %v ÷ %v = %d", snap.Rotations, elapsed, interval, elapsed/interval)
	}
	for _, ss := range snap.PerStream {
		// Slot s is due at ticks s, s+slots, …: slot 0 also at end.
		want := rotations
		if ss.Slot == 0 {
			want++
		}
		if ss.Scheduled != want || ss.Verdicts != int64(want) || ss.LostVerdicts != 0 {
			t.Fatalf("stream %s (slot %d): scheduled %d, %d verdicts (%d lost), want %d lossless",
				ss.ID, ss.Slot, ss.Scheduled, ss.Verdicts, ss.LostVerdicts, want)
		}
	}
	if snap.CatchUpTicks != wantCatchUp {
		t.Fatalf("CatchUpTicks = %d, want %d", snap.CatchUpTicks, wantCatchUp)
	}
	if want := float64((stall + overshoot).Microseconds()); snap.WheelLate.MaxMicros != want {
		t.Fatalf("WheelLate.MaxMicros = %v, want %v", snap.WheelLate.MaxMicros, want)
	}
	if p50, want := snap.WheelLate.P50Micros, latBucketUpper(latBucket(overshoot.Microseconds())); p50 > float64(want) {
		t.Fatalf("WheelLate.P50Micros = %v, want at most the %v overshoot's bucket (%d µs)", p50, overshoot, want)
	}

	// The newest checkpoint is the marker of the last rotation: it rode
	// the end tick, behind slot 0's harvest from the same tick.
	if snap.CheckpointsWritten != rotations/every || snap.CheckpointErrors != 0 {
		t.Fatalf("checkpoints %d (%d errors), want %d", snap.CheckpointsWritten, snap.CheckpointErrors, rotations/every)
	}
	e2 := newTestEngine(t, Config{Checkpoint: store})
	if _, _, err := e2.RestoreState(); err != nil {
		t.Fatal(err)
	}
	for _, ss := range snap.PerStream {
		if iv, ok := e2.RestoredInterval(ss.ID); !ok || iv != ss.Scheduled {
			t.Fatalf("stream %s: checkpointed interval %d (ok=%v), want %d", ss.ID, iv, ok, ss.Scheduled)
		}
	}
}

// TestPacedWheelIdleWakes: an idle wheel sleeps a rotation at a time,
// but a CaptureStates or an Add pokes it, so neither waits out the
// sleep: the capture rides the very next tick and a new stream is
// harvested at its own slot's deadline, both within one rotation.
func TestPacedWheelIdleWakes(t *testing.T) {
	const (
		slots    = 8
		interval = 8 * time.Millisecond
		d        = interval / slots
	)
	e := newTestEngine(t, Config{Shards: 2, WheelSlots: slots, Interval: interval, Policy: supervise.Block})
	clk := newFakeClock(e)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := clk.now()
	run := make(chan error, 1)
	go func() { run <- e.Run(ctx) }()

	// Tick 0 finds nothing to do; the wheel sleeps one rotation.
	if until := clk.awaitPark(t); !until.Equal(start.Add(interval)) {
		t.Fatalf("idle wheel parked until +%v, want +%v", until.Sub(start), interval)
	}

	captured := make(chan error, 1)
	go func() {
		_, err := e.CaptureStates(ctx, nil)
		captured <- err
	}()
	if until := clk.awaitPark(t); !until.Equal(start.Add(d)) {
		t.Fatalf("wheel with a parked capture sleeps until +%v, want the next tick +%v", until.Sub(start), d)
	}
	clk.set(start.Add(d))
	select {
	case err := <-captured:
		if err != nil {
			t.Fatalf("CaptureStates: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CaptureStates never completed")
	}

	// Two streams land in slots 0 and 1 while the wheel, due at tick 2,
	// sleeps a rotation past idle slots; the Adds make it re-plan to
	// slot 0's next deadline (tick 8).
	clk.awaitPark(t)
	addAt := clk.now()
	for i := 0; i < 2; i++ {
		if err := e.Add(StreamConfig{ID: fmt.Sprintf("a%d", i), Source: source.NewSynthetic(uint64(i+1), 4)}); err != nil {
			t.Fatal(err)
		}
	}
	until := clk.awaitPark(t)
	harvested := map[string]time.Time{}
	for {
		for _, ss := range e.Stats(true).PerStream {
			if _, seen := harvested[ss.ID]; !seen && ss.Scheduled > 0 {
				harvested[ss.ID] = clk.now()
			}
		}
		if len(harvested) == 2 {
			break
		}
		if until.Sub(addAt) > interval {
			t.Fatalf("wheel plans to sleep until +%v after Add, more than one rotation", until.Sub(addAt))
		}
		clk.set(until)
		until = clk.awaitPark(t)
	}
	want := map[string]time.Time{"a0": start.Add(interval), "a1": start.Add(interval + d)}
	for id, at := range harvested {
		if !at.Equal(want[id]) {
			t.Fatalf("stream %s harvested at +%v, want its slot's deadline +%v", id, at.Sub(start), want[id].Sub(start))
		}
	}
	waitUntil(t, "verdicts for the added streams", func() bool { return e.Stats(false).Verdicts == 2 })
	cancel()
	<-run
}

// TestPacedWheelDrainsPushBacklog: a push-fed stream gets one harvest
// per rotation at its own slot, which only matches its arrival rate, so
// a stream holding a backlog is harvested once more at the rotation
// boundary — in a batch of its own — until the backlog is gone. A
// stream with one sample per rotation gets no extra harvest.
func TestPacedWheelDrainsPushBacklog(t *testing.T) {
	const (
		slots    = 4
		interval = 4 * time.Millisecond
	)
	e := newTestEngine(t, Config{Shards: 1, WheelSlots: slots, Interval: interval, Policy: supervise.Block})
	clk := newFakeClock(e)
	behind, current := &queuedTestSource{}, &queuedTestSource{}
	for k := 0; k < 3; k++ {
		behind.push([]uint64{1, 2, 3, uint64(k)})
	}
	current.push([]uint64{1, 2, 3, 4})
	open := map[string]*atomic.Bool{"behind": {}, "current": {}}
	for id, src := range map[string]*queuedTestSource{"behind": behind, "current": current} {
		o := open[id]
		if err := e.Add(StreamConfig{ID: id, Source: &checkedQueue{t: t, id: id, q: src, open: o},
			OnVerdict: func(core.Verdict) { o.Store(false) }}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := clk.now()
	run := make(chan error, 1)
	go func() { run <- e.Run(ctx) }()

	scheduled := func() map[string]int {
		m := map[string]int{}
		for _, ss := range e.Stats(true).PerStream {
			m[ss.ID] = ss.Scheduled
		}
		return m
	}
	// Run rotation r's ticks: the wheel then parks for rotation r+1.
	for r := 1; r <= 2; r++ {
		for {
			until := clk.awaitPark(t)
			if until.Equal(start.Add(time.Duration(r) * interval)) {
				break
			}
			clk.set(until)
		}
		want := map[string]int{"behind": 2, "current": 1}
		if r == 2 {
			want["behind"] = 3
		}
		if got := scheduled(); got["behind"] != want["behind"] || got["current"] != want["current"] {
			t.Fatalf("after rotation %d: harvested %v, want %v", r-1, got, want)
		}
		clk.set(start.Add(time.Duration(r) * interval))
	}
	waitUntil(t, "verdicts for every sample", func() bool { return e.Stats(false).Verdicts == 4 })
	cancel()
	<-run
}

// TestPushFedClaimsNeverOvercount races the wheel's claims against the
// shards' reads on the real clock (run with -race): push-fed streams get
// bursts of samples every few ticks, so own-slot and boundary harvests
// keep claiming while the shards pop. A sample claimed twice would be
// read from an empty source and come back as a lost verdict.
func TestPushFedClaimsNeverOvercount(t *testing.T) {
	const streams, rounds = 64, 300
	e := newTestEngine(t, Config{Shards: 2, WheelSlots: 4, Interval: 400 * time.Microsecond, Policy: supervise.Block})
	srcs := make([]*queuedTestSource, streams)
	for i := range srcs {
		srcs[i] = &queuedTestSource{}
		if err := e.Add(StreamConfig{ID: fmt.Sprintf("q%d", i), Source: srcs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := make(chan error, 1)
	go func() { run <- e.Run(ctx) }()
	pushed := 0
	for r := 0; r < rounds; r++ {
		for i, src := range srcs {
			for k := 0; k <= (r+i)%3; k++ {
				src.push([]uint64{1, 2, 3, uint64(k)})
				pushed++
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	waitUntil(t, "a verdict for every pushed sample", func() bool { return e.Stats(false).Verdicts >= int64(pushed) })
	cancel()
	<-run
	if snap := e.Stats(false); snap.Verdicts != int64(pushed) || snap.LostVerdicts != 0 {
		t.Fatalf("%d verdicts (%d lost) for %d pushed samples, want every sample read exactly once",
			snap.Verdicts, snap.LostVerdicts, pushed)
	}
}

// checkedQueue wraps a push-fed test source and fails the test if the
// stream is read again before its previous verdict — a batch carrying
// it twice.
type checkedQueue struct {
	t    *testing.T
	id   string
	q    *queuedTestSource
	open *atomic.Bool
}

func (c *checkedQueue) Read(ctx context.Context, interval int) ([]uint64, error) {
	if c.open.Swap(true) {
		c.t.Errorf("stream %s: interval %d read before the previous verdict", c.id, interval)
	}
	return c.q.Read(ctx, interval)
}

func (c *checkedQueue) Pending() int { return c.q.Pending() }
func (c *checkedQueue) Closed() bool { return c.q.Closed() }

// TestPacedWheelKeepsCadence is the real-clock regression: 64 push-fed
// streams at 10 ms must see the wheel keep its rotation rate. A ticker
// that drops the ticks it fires late manages about 12 of 30 rotations
// here; the deadline schedule catches every one up.
func TestPacedWheelKeepsCadence(t *testing.T) {
	const interval = 10 * time.Millisecond
	e := newTestEngine(t, Config{Shards: 2, Interval: interval, Policy: supervise.Block})
	for i := 0; i < 64; i++ {
		if err := e.Add(StreamConfig{ID: fmt.Sprintf("q%d", i), Source: &queuedTestSource{}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	run := make(chan error, 1)
	go func() { run <- e.Run(ctx) }()
	time.Sleep(300 * time.Millisecond)
	rot := e.Rotations()
	elapsed := time.Since(start)
	cancel()
	<-run
	if want := int64(elapsed/interval) - 2; rot < want {
		t.Fatalf("%d rotations in %v, want at least %d", rot, elapsed, want)
	}
}

// TestCatchUpRotationZeroAlloc gates the pacing path's worst case at
// zero allocations: a full rotation of ticks run back to back with every
// stream due, as after a stall, with the shards draining only at the
// end — so the adaptive controller coalesces multi-tick batches. The
// warm-up runs only tick-at-a-time steady state; the presized staging,
// ring and shard scratch must already fit the catch-up's larger batches.
func TestCatchUpRotationZeroAlloc(t *testing.T) {
	const slots = 8
	e := newTestEngine(t, Config{Shards: 1, WheelSlots: slots, PendingBatches: slots, Policy: supervise.Block})
	for i := 0; i < 64; i++ {
		if err := e.Add(StreamConfig{ID: fmt.Sprintf("s%d", i), Source: source.NewSynthetic(uint64(i+1), 4)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	drain := func() {
		for _, sh := range e.shards {
			for sh.step(ctx) {
			}
		}
	}
	for i := 0; i < 8*slots; i++ {
		e.tickOnce(ctx)
		drain()
	}
	catchUp := func() {
		for i := 0; i < slots; i++ {
			e.tickOnce(ctx)
		}
		drain()
	}
	// The first catch-up is measured on its own: AllocsPerRun would
	// warm it up and average away a one-off slice growth.
	if n := mallocs(catchUp); n != 0 {
		t.Fatalf("first catch-up rotation after steady state allocates %d times, want 0", n)
	}
	if allocs := testing.AllocsPerRun(100, catchUp); allocs != 0 {
		t.Fatalf("catch-up rotation allocates %.2f times, want 0", allocs)
	}
	if got := e.Stats(false).Verdicts; got != int64(64*(8+102)) {
		t.Fatalf("Verdicts = %d, want %d", got, 64*(8+102))
	}
}

// mallocs counts the heap allocations of one call of f, single-threaded
// like testing.AllocsPerRun.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
