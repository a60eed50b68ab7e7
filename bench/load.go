package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/micro"
)

// The paper's unit of work: one verdict per stream per 10 ms sample.
const (
	period = int64(10_000_000) // ns between a stream's samples
	// deadline is due + 20 ms: at most one interval waiting for the
	// stream's wheel slot (a push-fed stream is harvested at most once
	// per rotation) plus one interval of service.
	deadline = 2 * period
	// sourceWindow mirrors ingest's default per-stream inflight window:
	// 64 samples, drop-oldest.
	sourceWindow = 64
	// The generator releases samples in 10 µs phase buckets, so its
	// work per wake-up scales with buckets passed, not streams.
	bucketNs = int64(10_000)
	buckets  = period / bucketNs
	minSleep = int64(50_000)
	// sampleWidth is the counter vector width: both chains' primary
	// stage reads 4 HPCs.
	sampleWidth = 4
)

// readings is the sample table: the training corpus's rows for the
// chain's events, grouped by application. Stream idx monitors one
// application and replays its intervals in order, every value jittered
// by ±10% from a hash of (idx, k) so no reading repeats exactly. The
// readings therefore walk the trained trees the way real counter
// values do (values outside the corpus's range would all take the
// same short path), and each is a pure function of (idx, k), so the
// reference replay needs no stored trace.
type readings struct {
	apps [][][sampleWidth]float64
}

func newReadings(data *dataset.Instances, events []micro.EventID) (*readings, error) {
	cols := make([]int, len(events))
	for i, ev := range events {
		cols[i] = -1
		for c, a := range data.Attributes {
			if a.Name == ev.String() {
				cols[i] = c
			}
		}
		if cols[i] < 0 {
			return nil, fmt.Errorf("corpus has no column for event %v", ev)
		}
	}
	byApp := map[string]int{}
	r := &readings{}
	for i, x := range data.X {
		a, ok := byApp[data.Groups[i]]
		if !ok {
			a = len(r.apps)
			byApp[data.Groups[i]] = a
			r.apps = append(r.apps, nil)
		}
		var row [sampleWidth]float64
		for j, c := range cols {
			row[j] = x[c]
		}
		r.apps[a] = append(r.apps[a], row)
	}
	if len(r.apps) == 0 {
		return nil, errors.New("empty corpus")
	}
	return r, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fill writes stream idx's k-th reading into buf (len sampleWidth).
func (r *readings) fill(idx, k int64, buf []uint64) []uint64 {
	app := r.apps[splitmix(uint64(idx))%uint64(len(r.apps))]
	row := &app[k%int64(len(app))]
	h := splitmix(uint64(idx)) ^ uint64(k)*0xC2B2AE3D27D4EB4F
	for i := range buf {
		h = splitmix(h)
		jitter := 0.9 + 0.2*float64(h>>11)/(1<<53)
		v := uint64(row[i]*jitter + 0.5)
		if v == 0 {
			v = 1 // a zero reading would mark the counter suspect
		}
		buf[i] = v
	}
	return buf
}

// sleepUntil blocks the calling goroutine, which must be locked to its
// OS thread, until mono() >= t. It uses nanosleep directly: Go's own
// timers wake no sooner than ~1 ms on Linux, too coarse for 10 µs
// phase buckets, while nanosleep overshoots by ~50 µs.
func sleepUntil(t int64) {
	for {
		d := t - mono()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// lane is one slice of the verdict-side statistics. Streams are spread
// over lanes by admission order, which is also how the engine assigns
// shards, so each shard records into its own lanes instead of bouncing
// cache lines with the other.
type lane struct {
	lat       hist // due → delivered, samples due in the phase
	delivered atomic.Int64
	ontime    atomic.Int64
	holdLast  atomic.Int64

	// Traced phase only: due → ReadInto and ReadInto → OnVerdict, plus
	// the per-layer self-time sums of the breakdown table.
	wait, svc                           hist
	sumRel, sumWait, sumSvc, sumDeliver atomic.Int64
}

// phase is the statistics of one measurement window. A traced run
// measures an untraced half and a traced half on the same engine.
type phase struct {
	from, to int64 // samples due in [from, to) belong here
	traced   bool
	lanes    []*lane

	// Load-side counts, written only by the load generator.
	due  int64 // samples due in the phase
	shed int64 // of those, dropped by a full source window
	// backlogSum/backlogN sample the mean source backlog (traced).
	backlogSum float64
	backlogN   int64
}

func newPhase(from, to int64, traced bool, nlanes int) *phase {
	p := &phase{from: from, to: to, traced: traced, lanes: make([]*lane, nlanes)}
	for i := range p.lanes {
		p.lanes[i] = new(lane)
	}
	return p
}

func (p *phase) merged() *lane {
	m := new(lane)
	for _, l := range p.lanes {
		m.lat.merge(&l.lat)
		m.wait.merge(&l.wait)
		m.svc.merge(&l.svc)
		m.delivered.Add(l.delivered.Load())
		m.ontime.Add(l.ontime.Load())
		m.holdLast.Add(l.holdLast.Load())
		m.sumRel.Add(l.sumRel.Load())
		m.sumWait.Add(l.sumWait.Load())
		m.sumSvc.Add(l.sumSvc.Load())
		m.sumDeliver.Add(l.sumDeliver.Load())
	}
	return m
}

// counter is an atomic count alone on its cache line.
type counter struct {
	n atomic.Int64
	_ [56]byte
}

// clockPlan is one run's fixed timeline (mono ns), set before any
// goroutine of the run starts and read-only afterwards.
type clockPlan struct {
	t0     int64 // period 0, bucket 0
	phases []*phase
	end    int64 // no sample due at or after end is released
	// cuts are the phase boundaries, where the process state is marked.
	cuts []int64
	// verdicts counts every verdict delivered, per lane, for the
	// delivery-gap poller.
	verdicts []counter
}

// setWindow lays out the measured window [w0, w0+window): one untraced
// phase, or an untraced and a traced half.
func (c *clockPlan) setWindow(w0 int64, window time.Duration, traced bool, nlanes int) {
	w1 := w0 + int64(window)
	c.phases = []*phase{newPhase(w0, w1, false, nlanes)}
	c.cuts = []int64{w0, w1}
	if traced {
		wm := w0 + (w1-w0)/2
		c.phases = []*phase{newPhase(w0, wm, false, nlanes), newPhase(wm, w1, true, nlanes)}
		c.cuts = []int64{w0, wm, w1}
	}
}

// threadCPUAt records the calling thread's CPU time at each of the
// plan's cuts that now has passed. The load generator and the wire
// clients run on locked threads and call it as they go, so their CPU
// can be taken out of the system's.
type threadCPUAt map[int64]time.Duration

func (m threadCPUAt) record(cuts []int64, now int64) {
	for _, t := range cuts {
		if _, ok := m[t]; !ok && now >= t {
			m[t] = threadCPU()
		}
	}
}

func newClockPlan(t0 int64, nlanes int) *clockPlan {
	return &clockPlan{t0: t0, verdicts: make([]counter, nlanes)}
}

func (c *clockPlan) delivered() int64 {
	var n int64
	for i := range c.verdicts {
		n += c.verdicts[i].n.Load()
	}
	return n
}

func (c *clockPlan) phaseIndex(due int64) int {
	for i, p := range c.phases {
		if due >= p.from && due < p.to {
			return i
		}
	}
	return -1
}

func (c *clockPlan) phaseOf(due int64) *phase {
	if i := c.phaseIndex(due); i >= 0 {
		return c.phases[i]
	}
	return nil
}

// stream is the benchmark's push-fed source for one monitored program:
// a source.Queued whose window mirrors ingest's (64 samples, drop-oldest)
// and which keeps, per read, what the verdict callback needs to time
// and check the verdict. The generator pushes, the owning shard reads
// and receives verdicts, the wheel polls Pending and Closed.
type stream struct {
	idx   int64
	id    string
	p0    int64 // period of sample 0
	start int64 // mono ns sample 0 is due
	n     int64 // samples in the stream's life (0 = unbounded)
	lane  int
	plan  *clockPlan
	rd    *readings
	check *checkLog // non-nil for the streams the reference replays

	// The window: sample numbers and their release lateness (ns past
	// due, saturated), kept narrow because churn admits ~10^5 streams.
	mu   sync.Mutex
	seqs [sourceWindow]int32
	late [sourceWindow]int32
	head int
	cnt  int

	pending atomic.Int64
	closed  atomic.Bool

	// Shard-owned: the shard strictly alternates ReadInto and the
	// verdict for a stream, so one slot pairs each verdict with its
	// sample. rdSeq < 0 means the verdict answers no read (hold-last).
	rdSeq, rdRel, rdAt int64
}

func (s *stream) due(k int64) int64 { return s.start + k*period }

// Read implements source.Source.
func (s *stream) Read(ctx context.Context, interval int) ([]uint64, error) {
	return s.ReadInto(ctx, interval, nil)
}

// ReadInto implements source.BufferedSource: it pops the oldest buffered
// sample. The wheel harvests a Queued stream only with a sample pending
// beyond its claims, so the window is never empty here.
func (s *stream) ReadInto(_ context.Context, _ int, buf []uint64) ([]uint64, error) {
	if cap(buf) < sampleWidth {
		buf = make([]uint64, sampleWidth)
	}
	s.mu.Lock()
	seq, late := int64(s.seqs[s.head]), int64(s.late[s.head])
	s.head = (s.head + 1) % sourceWindow
	s.cnt--
	s.pending.Store(int64(s.cnt))
	s.mu.Unlock()
	s.rdSeq, s.rdRel = seq, s.due(seq)+late
	if p := s.plan.phaseOf(s.due(seq)); p != nil && p.traced {
		s.rdAt = mono()
	}
	return s.rd.fill(s.idx, seq, buf[:sampleWidth]), nil
}

// Pending implements source.Queued.
func (s *stream) Pending() int { return int(s.pending.Load()) }

// Closed implements source.Queued.
func (s *stream) Closed() bool { return s.closed.Load() }

// push buffers sample k released at now, dropping the oldest sample
// when the window is full. It reports the dropped sample's due time
// (-1 when nothing was dropped).
func (s *stream) push(k, now int64) (droppedDue int64) {
	droppedDue = -1
	late := min(now-s.due(k), math.MaxInt32)
	s.mu.Lock()
	if s.cnt == sourceWindow {
		droppedDue = s.due(int64(s.seqs[s.head]))
		s.head = (s.head + 1) % sourceWindow
		s.cnt--
	}
	slot := (s.head + s.cnt) % sourceWindow
	s.seqs[slot], s.late[slot] = int32(k), int32(late)
	s.cnt++
	s.pending.Store(int64(s.cnt))
	s.mu.Unlock()
	return droppedDue
}

// onVerdict is the stream's fleet.StreamConfig.OnVerdict (shard
// goroutine). Untraced, it reads the clock once and nowhere else.
func (s *stream) onVerdict(v core.Verdict) {
	seq := s.rdSeq
	s.rdSeq = -1
	now := mono()
	s.plan.verdicts[s.lane].n.Add(1)
	if s.check != nil {
		s.check.recs = append(s.check.recs, checkRec{seq: seq, v: v})
	}
	if seq < 0 {
		if p := s.plan.phaseOf(now); p != nil {
			p.lanes[s.lane].holdLast.Add(1)
		}
		return
	}
	due := s.due(seq)
	p := s.plan.phaseOf(due)
	if p == nil {
		return
	}
	l := p.lanes[s.lane]
	lat := now - due
	l.lat.add(lat)
	l.delivered.Add(1)
	if lat <= deadline {
		l.ontime.Add(1)
	}
	if !p.traced {
		return
	}
	l.wait.add(s.rdAt - due)
	l.svc.add(now - s.rdAt)
	end := mono()
	l.sumRel.Add(s.rdRel - due)
	l.sumWait.Add(s.rdAt - s.rdRel)
	l.sumSvc.Add(now - s.rdAt)
	l.sumDeliver.Add(end - now)
	if s.check != nil {
		s.check.spans = append(s.check.spans, sampleSpan{
			seq: seq, due: due, rel: s.rdRel, read: s.rdAt, verdict: now, end: end,
		})
	}
}

// generator is the open-loop load: one goroutine, locked to its OS
// thread, releasing every due sample of every stream at the 10 ms
// cadence regardless of how the system keeps up. Stream s's sample k is
// due at t0 + φ_s + k·10 ms with φ_s uniform in [0, 10 ms).
type generator struct {
	plan *clockPlan
	rng  *rand.Rand

	slots   []*stream
	slotBkt []int32   // each slot's phase bucket
	slotPos []int32   // the slot's index inside its bucket
	bkts    [][]int32 // phase bucket → slots

	// Churn: a finished stream's slot is handed to a new stream with a
	// new ID and phase; admit receives it for Engine.Add.
	lifeMin, lifeMax int64 // samples; 0 = streams live forever
	nextIdx          int64
	newStream        func(idx int64) *stream
	admit            chan<- *stream

	// lateness is release − due for every sample due in a phase.
	lateness    hist
	nextBacklog int64

	cpuAt threadCPUAt
}

func newGenerator(plan *clockPlan, seed uint64) *generator {
	return &generator{
		plan:  plan,
		rng:   rand.New(rand.NewPCG(seed, 0x5DEECE66D)),
		bkts:  make([][]int32, buckets),
		cpuAt: threadCPUAt{},
	}
}

// backlogEvery is how often the generator samples the mean source
// backlog during a traced phase.
const backlogEvery = int64(100 * time.Millisecond)

func (g *generator) sampleBacklog(now int64) {
	p := g.plan.phaseOf(now)
	if p == nil || !p.traced || now < g.nextBacklog {
		return
	}
	g.nextBacklog = now + backlogEvery
	var sum int64
	for _, st := range g.slots {
		sum += st.pending.Load()
	}
	p.backlogSum += float64(sum) / float64(len(g.slots))
	p.backlogN++
}

// place assigns stream st to slot i with a phase drawn from the seeded
// generator, first due in period p0 or later.
func (g *generator) place(i int, st *stream, p0 int64, afterBkt int64) {
	phi := g.rng.Int64N(period)
	b := phi / bucketNs
	if b <= afterBkt {
		p0++
	}
	st.p0 = p0
	st.start = g.plan.t0 + p0*period + phi
	if i == len(g.slots) {
		g.slots = append(g.slots, st)
		g.slotBkt = append(g.slotBkt, int32(b))
		g.slotPos = append(g.slotPos, int32(len(g.bkts[b])))
		g.bkts[b] = append(g.bkts[b], int32(i))
		return
	}
	g.slots[i] = st
	if old := int64(g.slotBkt[i]); old != b {
		// Swap-remove from the old bucket, append to the new one.
		ob := g.bkts[old]
		pos := g.slotPos[i]
		last := ob[len(ob)-1]
		ob[pos] = last
		g.slotPos[last] = pos
		g.bkts[old] = ob[:len(ob)-1]
		g.slotBkt[i] = int32(b)
		g.slotPos[i] = int32(len(g.bkts[b]))
		g.bkts[b] = append(g.bkts[b], int32(i))
	}
}

// lifetime draws a churned stream's life in samples.
func (g *generator) lifetime() int64 {
	if g.lifeMax == 0 {
		return 0
	}
	return g.lifeMin + g.rng.Int64N(g.lifeMax-g.lifeMin+1)
}

// run releases samples until the plan's end, then closes every stream
// so the engine drains and finishes them.
func (g *generator) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var cur int64 // global bucket index since t0
	var moves []int32
	for {
		now := mono()
		g.cpuAt.record(g.plan.cuts, now)
		g.sampleBacklog(now)
		for {
			bStart := g.plan.t0 + cur*bucketNs
			if bStart+bucketNs > now || bStart >= g.plan.end {
				break
			}
			moves = g.release(cur, now, moves[:0])
			cur++
		}
		if g.plan.t0+cur*bucketNs >= g.plan.end {
			break
		}
		// Sleep to the end of the next bucket holding a stream, but at
		// least minSleep: each wake-up costs a syscall and, on a busy
		// box, a wait for a free P.
		next := cur
		for i := int64(0); i < buckets && len(g.bkts[next%buckets]) == 0; i++ {
			next++
		}
		sleepUntil(max(g.plan.t0+(next+1)*bucketNs, now+minSleep))
	}
	g.cpuAt.record(g.plan.cuts, mono())
	for _, st := range g.slots {
		st.closed.Store(true)
	}
}

// release pushes every sample due in bucket cur. Slots whose stream
// reached the end of its life get a fresh stream, placed after the
// bucket is done so the bucket's slice is not edited mid-walk.
func (g *generator) release(cur, now int64, moves []int32) []int32 {
	p, b := cur/buckets, cur%buckets
	for _, si := range g.bkts[b] {
		st := g.slots[si]
		k := p - st.p0
		if k < 0 {
			continue // placed this period, first due next period
		}
		if st.n > 0 && k >= st.n {
			moves = append(moves, si)
			continue
		}
		due := st.due(k)
		if ph := g.plan.phaseOf(due); ph != nil {
			ph.due++
			g.lateness.add(now - due)
		}
		if dd := st.push(k, now); dd >= 0 {
			if ph := g.plan.phaseOf(dd); ph != nil {
				ph.shed++
			}
		}
	}
	for _, si := range moves {
		old := g.slots[si]
		old.closed.Store(true)
		st := g.newStream(g.nextIdx)
		g.nextIdx++
		st.n = g.lifetime()
		g.place(int(si), st, p, b)
		g.admit <- st
	}
	return moves
}
