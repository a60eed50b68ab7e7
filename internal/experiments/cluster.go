package experiments

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/mlearn/zoo"
	"repro/internal/supervise"
)

// The cluster experiment drills the multi-node control plane the way
// ingest.go drills the single-node front door: a coordinator places
// real streams across several in-process serving nodes, a scripted
// fault schedule kills one node outright (lease-expiry failover),
// partitions another from the coordinator (expiry + rejoin while its
// data plane keeps serving), slows heartbeats on the rest, and finally
// every node is drained and replaced in turn — a rolling upgrade. The
// contracts are the cluster plane's: clients land on the owner via
// REDIRECT, reconnects resume from the server-authoritative position,
// every ownership move is recorded in the handoff audit trail, verdict
// timelines stay bit-identical to an unbroken single-node reference
// across every migration, and accounting on gracefully stopped nodes
// is exact (a crashed node may lose only its bounded in-flight work).

const clusterDrillTenant = "drill"

// ClusterChaosConfig parameterises the cluster chaos drill.
type ClusterChaosConfig struct {
	// Nodes is the cluster size (default 3, minimum 2). One node is
	// scheduled to crash, one to partition; the rest get slow
	// heartbeats.
	Nodes int
	// Streams is the client stream count (default 4). The drill may
	// add streams until placement spans at least two nodes, so the
	// initial REDIRECT contract is deterministic.
	Streams int
	// Intervals is the samples per stream, served in four quarters
	// between fault phases (default 48, must be a multiple of 4).
	Intervals int
	// HeartbeatEvery is the agents' lease cadence (default 75ms).
	HeartbeatEvery time.Duration
	// LeaseTTL is the coordinator's failure-detection horizon
	// (default 300ms — four heartbeats of silence).
	LeaseTTL time.Duration
	// Interval is the fleet wheel pacing on every node (default 2ms).
	Interval time.Duration
	// Seed drives the fault schedules and backoff jitter.
	Seed uint64
}

func (c *ClusterChaosConfig) fill() {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Streams == 0 {
		c.Streams = 4
	}
	if c.Intervals == 0 {
		c.Intervals = 48
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 75 * time.Millisecond
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 300 * time.Millisecond
	}
	if c.Interval == 0 {
		c.Interval = 2 * time.Millisecond
	}
}

// ClusterStreamOutcome is one drilled stream's ledger.
type ClusterStreamOutcome struct {
	Key   string
	Owner string // initial placement
	// Echoed is the distinct intervals the client read back; Missing
	// the intervals never echoed (a crash may eat the echo of work the
	// fanned-in snapshot already covered — bounded, never silent on the
	// server side).
	Echoed  int
	Missing int
	// Reconnects counts re-dials after the initial admission.
	Reconnects int
	// BitIdentical: every echoed verdict matches the unbroken
	// single-node reference chain fed the same samples.
	BitIdentical bool
}

// ClusterChaosResult aggregates the drill.
type ClusterChaosResult struct {
	Nodes     int
	Intervals int
	// KillNode crashed mid-run; PartitionNode lost its control link.
	KillNode      string
	PartitionNode string

	Streams []ClusterStreamOutcome

	// Client-side journey counters, summed over every dial.
	Redirects  int
	Retries    int
	Rotations  int
	Reconnects int

	// Coordinator counters at settle time.
	Joins         int64
	LeaseExpiries int64
	StatesStored  int64
	Installs      int64

	// Handoff audit trail: total moves, split by reason, and whether
	// every stream shows up in at least one move (the rolling upgrade
	// guarantees it).
	Handoffs         int
	FailoverHandoffs int
	DrainHandoffs    int
	EveryStreamMoved bool

	// RollsCompleted counts drain->replace cycles (one per node).
	RollsCompleted int

	// CoverageOK: every stream echoed all but at most two intervals
	// (the crash budget); BitIdentical covers every echoed verdict.
	CoverageOK   bool
	BitIdentical bool
	// AccountingExact: every gracefully stopped or still-live node
	// settled accepted == attributed + shed and verdicts == attributed
	// + held. KilledLossBounded: the crashed incarnation lost at most
	// one in-flight sample per stream.
	AccountingExact   bool
	KilledLossBounded bool
	// MembershipHealed: the final membership is back to full strength.
	MembershipHealed bool
}

// Passed reports whether every cluster contract held.
func (r ClusterChaosResult) Passed() bool {
	return r.BitIdentical && r.CoverageOK && r.AccountingExact &&
		r.KilledLossBounded && r.MembershipHealed &&
		r.Redirects > 0 && r.Reconnects >= len(r.Streams)+1 &&
		r.FailoverHandoffs > 0 && r.DrainHandoffs > 0 &&
		r.EveryStreamMoved && r.RollsCompleted == r.Nodes &&
		r.LeaseExpiries >= 2
}

// clusterVals derives the deterministic counter vector for (stream,
// seq); the bit-identity check replays exactly these into a reference
// chain.
func clusterVals(sid int, seq uint32, buf []uint64) []uint64 {
	for j := range buf {
		buf[j] = uint64(seq)*uint64(5+3*j) + uint64(sid*97) + uint64(j) + 1
	}
	return buf
}

func clusterWait(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster drill: timed out waiting for %s", what)
}

// clusterHarness owns the coordinator and the node slots. Slots are
// stable across replacement: a rolled node's successor keeps its slot
// (and its member ID — the upgraded box comes back under the same
// name).
type clusterHarness struct {
	cfg       ClusterChaosConfig
	coord     *cluster.Coordinator
	coordAddr string
	replicate func() (*core.FallbackChain, error)
	width     int

	mu    sync.Mutex
	ids   []string
	nodes []*cluster.Node
}

func (h *clusterHarness) start(slot int, plan faults.NodePlan) error {
	nd, err := cluster.StartNode(cluster.NodeConfig{
		ID:          h.ids[slot],
		Coordinator: h.coordAddr,
		Fleet: fleet.Config{
			NewChain:   h.replicate,
			Shards:     2,
			WheelSlots: 4,
			Interval:   h.cfg.Interval,
			Policy:     supervise.Block,
		},
		Width:          h.width,
		HeartbeatEvery: h.cfg.HeartbeatEvery,
		// Fan in states every heartbeat: the failover contract wants
		// fresh snapshots stored before the scripted crash lands.
		StatesEvery: 1,
		Plan:        plan,
		Seed:        h.cfg.Seed + uint64(slot),
	})
	if err != nil {
		return fmt.Errorf("cluster drill: node %s: %w", h.ids[slot], err)
	}
	h.mu.Lock()
	h.nodes[slot] = nd
	h.mu.Unlock()
	return nil
}

func (h *clusterHarness) node(slot int) *cluster.Node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[slot]
}

// bootstrap lists every slot's current listener — dead ones included,
// deliberately: the dialer must rotate past a crashed node on its own.
func (h *clusterHarness) bootstrap() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, nd := range h.nodes {
		if nd != nil {
			out = append(out, nd.Addr())
		}
	}
	return out
}

func (h *clusterHarness) close() {
	h.mu.Lock()
	nodes := append([]*cluster.Node(nil), h.nodes...)
	h.mu.Unlock()
	for _, nd := range nodes {
		if nd != nil {
			nd.Close()
		}
	}
	h.coord.Close()
}

// clusterStream is one lock-step client: a single sample in flight,
// reconnecting through cluster.Dial whenever its serving node dies,
// drains or redirects, always resuming from the server-authoritative
// position. Echoes are deduplicated first-wins per interval, so
// replays after a stale resume are harmless.
type clusterStream struct {
	sid  int
	name string
	key  string

	seq        uint32
	c          *ingest.Client
	got        map[uint32]ingest.Verdict
	dials      int
	reconnects int
	stats      cluster.DialStats
}

func (s *clusterStream) drop() {
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
}

// advance pumps the stream to interval `to`, surviving any number of
// node deaths and drains along the way.
func (s *clusterStream) advance(h *clusterHarness, to uint32, buf []uint64) error {
	redials := 0
	for s.seq < to {
		if s.c == nil {
			if redials++; redials > 50 {
				return fmt.Errorf("cluster drill: %s: no progress after %d redials", s.key, redials)
			}
			c, st, err := cluster.Dial(cluster.DialConfig{
				Bootstrap: h.bootstrap,
				Hello:     ingest.Hello{Width: h.width, Tenant: clusterDrillTenant, Stream: s.name},
				Timeout:   2 * time.Second,
				Seed:      h.cfg.Seed + uint64(s.sid)*0x9E37,
			})
			if err != nil {
				return fmt.Errorf("cluster drill: %s: %w", s.key, err)
			}
			s.c = c
			s.stats.Redirects += st.Redirects
			s.stats.Retries += st.Retries
			s.stats.Rotations += st.Rotations
			if s.dials++; s.dials > 1 {
				s.reconnects++
			}
			// Server-authoritative resume: whatever state made it to the
			// new owner. Staler than our position just means more
			// replay; the dedup keeps the first echo of each interval.
			s.seq = uint32(s.c.Admitted.Resume)
			continue
		}
		if err := s.c.Send(s.seq, clusterVals(s.sid, s.seq, buf)); err != nil {
			s.drop()
			continue
		}
		for {
			ev, err := s.c.Next()
			if err != nil {
				s.drop()
				break
			}
			switch ev.Type {
			case ingest.FrameVerdict:
				if _, dup := s.got[ev.Verdict.Interval]; !dup {
					s.got[ev.Verdict.Interval] = ev.Verdict
				}
				if ev.Verdict.Seq >= s.seq {
					s.seq = ev.Verdict.Seq + 1
				}
			case ingest.FrameDrain, ingest.FrameError:
				// Finished-by-drain or a protocol rejection: reconnect
				// and let placement steer us to the new owner.
				s.drop()
			}
			if s.c == nil || s.seq >= to {
				break
			}
			if ev.Type == ingest.FrameVerdict && ev.Verdict.Seq+1 >= s.seq {
				break // lock-step echo landed; send the next sample
			}
		}
	}
	return nil
}

// clusterQuarter pumps every stream to `to` concurrently.
func clusterQuarter(h *clusterHarness, streams []*clusterStream, to uint32) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(streams))
	for _, s := range streams {
		wg.Add(1)
		go func(s *clusterStream) {
			defer wg.Done()
			buf := make([]uint64, h.width)
			if err := s.advance(h, to, buf); err != nil {
				errs <- err
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// clusterAccounting checks one incarnation's ledger. slack is the
// tolerated accepted-but-never-scored gap: zero for graceful stops,
// one in-flight sample per stream for a crash.
func clusterAccounting(st ingest.NodeStats, slack uint64) bool {
	scored := st.Attributed + st.Shed
	if st.Accepted < scored || st.Accepted-scored > slack {
		return false
	}
	return st.Verdicts >= st.Attributed && st.Verdicts-st.Attributed <= st.Held+slack
}

// ClusterChaos runs the multi-node drill on the context's trained
// chain.
func (ctx *Context) ClusterChaos(cfg ClusterChaosConfig) (ClusterChaosResult, error) {
	cfg.fill()
	var res ClusterChaosResult
	if cfg.Nodes < 2 {
		return res, fmt.Errorf("cluster drill: %d nodes, need at least 2", cfg.Nodes)
	}
	if cfg.Intervals%4 != 0 || cfg.Intervals < 8 {
		return res, fmt.Errorf("cluster drill: intervals %d must be a multiple of 4 and >= 8", cfg.Intervals)
	}
	res.Nodes, res.Intervals = cfg.Nodes, cfg.Intervals

	chain, err := ctx.Builder.BuildChain("REPTree", zoo.Boosted, []int{4, 2}, core.ChainConfig{})
	if err != nil {
		return res, fmt.Errorf("cluster drill: building chain: %w", err)
	}
	replicate, err := core.NewChainReplicator(chain)
	if err != nil {
		return res, fmt.Errorf("cluster drill: replicating chain: %w", err)
	}

	h := &clusterHarness{
		cfg:       cfg,
		replicate: replicate,
		width:     len(chain.Events()),
		nodes:     make([]*cluster.Node, cfg.Nodes),
	}
	members := make([]ingest.Member, cfg.Nodes)
	for i := range members {
		h.ids = append(h.ids, fmt.Sprintf("n%d", i))
		members[i] = ingest.Member{ID: h.ids[i], Weight: 1}
	}

	// Placement is a pure function of the member IDs, so the fault
	// schedule is cast before anything starts: the stream s0 owner is
	// scheduled to crash, the next distinct node to partition, the rest
	// to drag their heartbeats.
	ring := cluster.BuildRing(1, members, 0)
	streams := make([]*clusterStream, 0, cfg.Streams)
	owners := map[string]string{}
	for i := 0; len(streams) < cfg.Streams || len(distinct(owners)) < 2; i++ {
		if i >= cfg.Streams+16 {
			return res, errors.New("cluster drill: degenerate placement, all streams on one node")
		}
		name := fmt.Sprintf("s%d", i)
		key := clusterDrillTenant + "/" + name
		o, _ := ring.Owner(key)
		owners[key] = o.ID
		streams = append(streams, &clusterStream{
			sid: i, name: name, key: key, got: map[uint32]ingest.Verdict{},
		})
	}
	killID := owners[streams[0].key]
	partitionID := ""
	for _, id := range h.ids {
		if id != killID {
			partitionID = id
			break
		}
	}
	res.KillNode, res.PartitionNode = killID, partitionID

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{LeaseTTL: cfg.LeaseTTL})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, fmt.Errorf("cluster drill: coordinator listen: %w", err)
	}
	go coord.Serve(ln)
	h.coord, h.coordAddr = coord, ln.Addr().String()
	defer h.close()

	// Scripted schedules, all on the heartbeat clock: the crash lands
	// after the first quarter has been served and fanned in, the
	// partition well after the failover cycle, and the slow-heartbeat
	// background noise must never push a healthy node past the TTL.
	killSlot, partitionSlot := 0, 0
	for i, id := range h.ids {
		var plan faults.NodePlan
		switch id {
		case killID:
			plan = faults.NodePlan{Seed: cfg.Seed, KillAfter: 24}
			killSlot = i
		case partitionID:
			plan = faults.NodePlan{Seed: cfg.Seed, PartitionAfter: 64, PartitionFor: 6}
			partitionSlot = i
		default:
			plan = faults.NodePlan{
				Seed: cfg.Seed, Rate: 0.05,
				Kinds:    []faults.NodeKind{faults.SlowHeartbeat},
				MaxDelay: cfg.HeartbeatEvery / 4,
			}
		}
		if err := h.start(i, plan); err != nil {
			return res, err
		}
	}
	if err := clusterWait("initial membership", 15*time.Second, func() bool {
		return coord.Stats().Placed == cfg.Nodes
	}); err != nil {
		return res, err
	}
	// Ring views ride lease replies: wait until every node agrees with
	// the full-membership placement, or early dials would be admitted
	// locally under a stale one-member ring instead of redirected.
	if err := clusterWait("ring convergence", 15*time.Second, func() bool {
		for i := range h.ids {
			nd := h.node(i)
			for _, s := range streams {
				if _, local := nd.Agent().Placement(s.key); local != (h.ids[i] == owners[s.key]) {
					return false
				}
			}
		}
		return true
	}); err != nil {
		return res, err
	}

	n := uint32(cfg.Intervals)
	q := n / 4

	// ---- Quarter 1: steady state; every stream lands on its owner ----
	if err := clusterQuarter(h, streams, q); err != nil {
		return res, err
	}
	// Every stream's state must be fanned in before the crash — that
	// snapshot is what the failover installs on the survivor.
	if err := clusterWait("state fan-in", 15*time.Second, func() bool {
		return coord.Stats().StatesStored >= int64(len(streams))
	}); err != nil {
		return res, err
	}

	// ---- Crash: the s0 owner's schedule kills it ----
	if err := clusterWait("scheduled node kill", 20*time.Second, func() bool {
		return h.node(killSlot).Killed()
	}); err != nil {
		return res, err
	}
	if err := clusterWait("lease-expiry failover", 15*time.Second, func() bool {
		s := coord.Stats()
		return s.LeaseExpiries >= 1 && s.Placed == cfg.Nodes-1
	}); err != nil {
		return res, err
	}

	// ---- Quarter 2: clients of the dead node reconnect and resume ----
	if err := clusterQuarter(h, streams, 2*q); err != nil {
		return res, err
	}
	killedStats := h.node(killSlot).Server().NodeStatsSnapshot()

	// The crashed box comes back under the same identity, empty — its
	// streams stay where they failed over to until the rolling upgrade.
	if err := h.start(killSlot, faults.NodePlan{}); err != nil {
		return res, err
	}
	if err := clusterWait("crashed node rejoined", 15*time.Second, func() bool {
		return coord.Stats().Placed == cfg.Nodes
	}); err != nil {
		return res, err
	}

	// ---- Partition: the control link goes silent, the data plane
	// keeps serving, the lease expires, the node rejoins on heal ----
	if err := clusterWait("partition cycle (expiry + rejoin)", 30*time.Second, func() bool {
		return h.node(partitionSlot).Agent().Stats().Joins >= 2 &&
			coord.Stats().LeaseExpiries >= 2
	}); err != nil {
		return res, err
	}
	if err := clusterWait("membership healed after partition", 15*time.Second, func() bool {
		return coord.Stats().Placed == cfg.Nodes
	}); err != nil {
		return res, err
	}

	// ---- Quarter 3 ----
	if err := clusterQuarter(h, streams, 3*q); err != nil {
		return res, err
	}

	// ---- Rolling upgrade: drain every node, replace it in place ----
	var graceful []ingest.NodeStats
	for slot := range h.ids {
		id := h.ids[slot]
		if err := coord.DrainNode(id); err != nil {
			return res, fmt.Errorf("cluster drill: drain %s: %w", id, err)
		}
		old := h.node(slot)
		if err := old.Wait(20 * time.Second); err != nil {
			return res, fmt.Errorf("cluster drill: drained node %s: %w", id, err)
		}
		graceful = append(graceful, old.Server().NodeStatsSnapshot())
		if err := h.start(slot, faults.NodePlan{}); err != nil {
			return res, err
		}
		if err := clusterWait("replacement "+id+" joined", 15*time.Second, func() bool {
			return coord.Stats().Placed == cfg.Nodes
		}); err != nil {
			return res, err
		}
		res.RollsCompleted++
	}

	// ---- Quarter 4: the upgraded cluster finishes every timeline ----
	if err := clusterQuarter(h, streams, n); err != nil {
		return res, err
	}
	for _, s := range streams {
		s.drop()
	}

	// ---- Settle the ledger ----
	res.AccountingExact = true
	for slot := range h.ids {
		nd := h.node(slot)
		st := nd.Server().NodeStatsSnapshot()
		if err := clusterWait("accounting settled", 10*time.Second, func() bool {
			st = nd.Server().NodeStatsSnapshot()
			return clusterAccounting(st, 0)
		}); err != nil {
			res.AccountingExact = false
		}
	}
	for _, st := range graceful {
		if !clusterAccounting(st, 0) {
			res.AccountingExact = false
		}
	}
	// The crash may strand at most one in-flight sample per stream —
	// accepted, never scored, and replayed by the client elsewhere.
	res.KilledLossBounded = clusterAccounting(killedStats, uint64(len(streams)))

	stats := coord.Stats()
	res.Joins, res.LeaseExpiries = stats.Joins, stats.LeaseExpiries
	res.StatesStored, res.Installs = stats.StatesStored, stats.Installs
	res.MembershipHealed = stats.Placed == cfg.Nodes && stats.Members == cfg.Nodes

	moved := map[string]bool{}
	for _, ho := range coord.Handoffs() {
		res.Handoffs++
		moved[ho.Stream] = true
		switch ho.Reason {
		case "failover":
			res.FailoverHandoffs++
		case "drain":
			res.DrainHandoffs++
		}
	}
	res.EveryStreamMoved = true
	for _, s := range streams {
		if !moved[s.key] {
			res.EveryStreamMoved = false
		}
	}

	res.CoverageOK, res.BitIdentical = true, true
	for _, s := range streams {
		ref, err := replicate()
		if err != nil {
			return res, fmt.Errorf("cluster drill: reference chain: %w", err)
		}
		out := ClusterStreamOutcome{
			Key: s.key, Owner: owners[s.key],
			Echoed: len(s.got), Reconnects: s.reconnects, BitIdentical: true,
		}
		buf := make([]uint64, h.width)
		for seq := uint32(0); seq < n; seq++ {
			want, err := ref.Observe(clusterVals(s.sid, seq, buf))
			if err != nil {
				return res, fmt.Errorf("cluster drill: reference replay: %w", err)
			}
			g, ok := s.got[seq]
			if !ok {
				out.Missing++
				continue
			}
			if g.Score != want.Score || g.Malware != want.Malware {
				out.BitIdentical = false
			}
		}
		// A crash can eat the echo of work the snapshot already
		// covered; everything else re-echoes on replay.
		if out.Missing > 2 {
			res.CoverageOK = false
		}
		res.BitIdentical = res.BitIdentical && out.BitIdentical
		res.Redirects += s.stats.Redirects
		res.Retries += s.stats.Retries
		res.Rotations += s.stats.Rotations
		res.Reconnects += s.reconnects
		res.Streams = append(res.Streams, out)
	}
	return res, nil
}

func distinct(m map[string]string) map[string]bool {
	out := map[string]bool{}
	for _, v := range m {
		out[v] = true
	}
	return out
}

// RenderClusterChaos formats the drill's outcome as a checklist plus
// the per-stream ledger.
func RenderClusterChaos(r ClusterChaosResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cluster chaos drill: %d nodes, %d streams x %d intervals (kill=%s partition=%s)\n",
		r.Nodes, len(r.Streams), r.Intervals, r.KillNode, r.PartitionNode)
	for _, s := range r.Streams {
		fmt.Fprintf(&sb, "  %-10s owner=%-4s echoed=%2d missing=%d reconnects=%d bitident=%v\n",
			s.Key, s.Owner, s.Echoed, s.Missing, s.Reconnects, s.BitIdentical)
	}
	check := func(ok bool, format string, args ...any) {
		mark := "PASS"
		if !ok {
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "  [%s] %s\n", mark, fmt.Sprintf(format, args...))
	}
	sb.WriteString("contracts:\n")
	check(r.BitIdentical, "every echoed verdict bit-identical to the unbroken single-node reference")
	check(r.CoverageOK, "per-stream echo coverage within the crash budget (<= 2 missing)")
	check(r.LeaseExpiries >= 2 && r.FailoverHandoffs > 0,
		"node death and partition detected by lease expiry (%d expiries, %d failover handoffs)",
		r.LeaseExpiries, r.FailoverHandoffs)
	check(r.RollsCompleted == r.Nodes && r.DrainHandoffs > 0,
		"rolling upgrade drained and replaced every node (%d/%d, %d drain handoffs)",
		r.RollsCompleted, r.Nodes, r.DrainHandoffs)
	check(r.EveryStreamMoved, "every stream changed hands at least once (%d handoffs total)", r.Handoffs)
	check(r.Redirects > 0 && r.Reconnects >= len(r.Streams)+1,
		"clients steered to owners and resumed across moves (%d redirects, %d reconnects, %d rotations)",
		r.Redirects, r.Reconnects, r.Rotations)
	check(r.AccountingExact, "accounting exact on every graceful incarnation")
	check(r.KilledLossBounded, "crashed node lost at most its in-flight window")
	check(r.MembershipHealed, "final membership back to full strength (%d joins)", r.Joins)
	return sb.String()
}

// ---- Cluster scaling bench ----

// ClusterBenchConfig parameterises the node-count scaling sweep.
type ClusterBenchConfig struct {
	// NodeCounts sweeps cluster sizes (default 2, 3, 4, 6, 8).
	NodeCounts []int
	// StreamsPerNode scales offered streams with the cluster (default 4).
	StreamsPerNode int
	// Samples per stream (default 150).
	Samples int
	// Interval is the per-node wheel pacing — each stream's service
	// rate (default 1ms).
	Interval time.Duration
	// Seed drives dial jitter.
	Seed uint64
}

func (c ClusterBenchConfig) nodeCounts() []int {
	if len(c.NodeCounts) > 0 {
		return c.NodeCounts
	}
	return []int{2, 3, 4, 6, 8}
}

func (c ClusterBenchConfig) streamsPerNode() int {
	if c.StreamsPerNode > 0 {
		return c.StreamsPerNode
	}
	return 4
}

func (c ClusterBenchConfig) samples() int {
	if c.Samples > 0 {
		return c.Samples
	}
	return 150
}

func (c ClusterBenchConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return time.Millisecond
}

// ClusterPoint is one cluster size's measurement.
type ClusterPoint struct {
	Nodes           int
	Streams         int
	Samples         int
	WallMillis      float64
	IntervalsPerSec float64
	PerNodePerSec   float64
	Redirects       int
	Rotations       int
}

// ClusterReport is the scaling sweep, serialized to BENCH_CLUSTER.json
// by hmd-bench -exp cluster.
type ClusterReport struct {
	Chain          []string
	Width          int
	StreamsPerNode int
	Samples        int
	IntervalMillis float64
	Points         []ClusterPoint
}

// ClusterBench sweeps cluster sizes: each point stands up a coordinator
// plus k serving nodes, offers k*StreamsPerNode windowed streams
// through cluster-aware dials, and measures the aggregate scored
// interval rate. Placement spreads streams by consistent hashing, so
// throughput should scale close to linearly with node count until the
// host itself saturates.
func (ctx *Context) ClusterBench(cfg ClusterBenchConfig) (*ClusterReport, error) {
	chain, err := ctx.Builder.BuildChain("REPTree", zoo.Boosted, []int{4, 2}, core.ChainConfig{})
	if err != nil {
		return nil, fmt.Errorf("cluster bench: building chain: %w", err)
	}
	replicate, err := core.NewChainReplicator(chain)
	if err != nil {
		return nil, fmt.Errorf("cluster bench: replicating chain: %w", err)
	}
	rep := &ClusterReport{
		Width:          len(chain.Events()),
		StreamsPerNode: cfg.streamsPerNode(),
		Samples:        cfg.samples(),
		IntervalMillis: durMillis(cfg.interval()),
	}
	for s := 0; s <= chain.Stages(); s++ {
		rep.Chain = append(rep.Chain, chain.StageName(s))
	}
	for _, k := range cfg.nodeCounts() {
		pt, err := clusterBenchPoint(cfg, replicate, rep.Width, k)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

func clusterBenchPoint(cfg ClusterBenchConfig, replicate func() (*core.FallbackChain, error),
	width, k int) (ClusterPoint, error) {
	var pt ClusterPoint
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{LeaseTTL: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pt, fmt.Errorf("cluster bench: coordinator listen: %w", err)
	}
	go coord.Serve(ln)
	defer coord.Close()

	nodes := make([]*cluster.Node, k)
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
	}()
	for i := range nodes {
		nd, err := cluster.StartNode(cluster.NodeConfig{
			ID:          fmt.Sprintf("b%d", i),
			Coordinator: ln.Addr().String(),
			Fleet: fleet.Config{
				NewChain:   replicate,
				Shards:     2,
				WheelSlots: 4,
				Interval:   cfg.interval(),
				Policy:     supervise.Block,
			},
			Width:          width,
			HeartbeatEvery: 250 * time.Millisecond,
			// The bench measures the data plane; no periodic fan-in.
			StatesEvery: -1,
			Seed:        cfg.Seed + uint64(i),
		})
		if err != nil {
			return pt, fmt.Errorf("cluster bench: node b%d: %w", i, err)
		}
		nodes[i] = nd
	}
	if err := clusterWait("bench membership", 15*time.Second, func() bool {
		return coord.Stats().Placed == k
	}); err != nil {
		return pt, err
	}
	bootstrap := func() []string {
		out := make([]string, 0, k)
		for _, nd := range nodes {
			out = append(out, nd.Addr())
		}
		return out
	}

	nStreams := k * cfg.streamsPerNode()
	samples := cfg.samples()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, nStreams)
	var mu sync.Mutex
	for i := 0; i < nStreams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := clusterBenchStream(bootstrap, cfg.Seed, width, i, samples)
			mu.Lock()
			pt.Redirects += st.Redirects
			pt.Rotations += st.Rotations
			mu.Unlock()
			if err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return pt, fmt.Errorf("cluster bench: %w", err)
	default:
	}
	wall := time.Since(start)

	pt.Nodes, pt.Streams, pt.Samples = k, nStreams, samples
	pt.WallMillis = durMillis(wall)
	pt.IntervalsPerSec = float64(nStreams*samples) / wall.Seconds()
	pt.PerNodePerSec = pt.IntervalsPerSec / float64(k)
	return pt, nil
}

// clusterBenchStream offers one windowed stream: it keeps the inflight
// window full and self-clocks on verdict echoes, so nothing is shed and
// every sample is scored exactly once.
func clusterBenchStream(bootstrap func() []string, seed uint64, width, sid, samples int) (cluster.DialStats, error) {
	c, st, err := cluster.Dial(cluster.DialConfig{
		Bootstrap: bootstrap,
		Hello:     ingest.Hello{Width: width, Tenant: "bench", Stream: fmt.Sprintf("s%d", sid)},
		Timeout:   30 * time.Second,
		Seed:      seed + uint64(sid),
	})
	if err != nil {
		return st, err
	}
	defer c.Close()
	window := c.Admitted.Window
	if window < 1 {
		window = 1
	}
	buf := make([]uint64, width)
	sent, echoed, inflight := 0, 0, 0
	for echoed < samples {
		if sent < samples && inflight < window {
			if err := c.Send(uint32(sent), clusterVals(sid, uint32(sent), buf)); err != nil {
				return st, fmt.Errorf("s%d send %d: %w", sid, sent, err)
			}
			sent++
			inflight++
			continue
		}
		ev, err := c.Next()
		if err != nil {
			return st, fmt.Errorf("s%d after %d echoes: %w", sid, echoed, err)
		}
		if ev.Type == ingest.FrameVerdict {
			echoed++
			inflight--
		}
	}
	if err := c.Bye(); err != nil {
		return st, fmt.Errorf("s%d BYE: %w", sid, err)
	}
	for {
		ev, err := c.Next()
		if err != nil {
			return st, fmt.Errorf("s%d waiting for finish: %w", sid, err)
		}
		if ev.Type == ingest.FrameDrain {
			return st, nil
		}
	}
}

// RenderCluster formats the scaling sweep for the console.
func RenderCluster(r *ClusterReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cluster scaling sweep (%s; %d streams/node x %d samples, interval %.1fms)\n",
		strings.Join(r.Chain, " -> "), r.StreamsPerNode, r.Samples, r.IntervalMillis)
	sb.WriteString("  nodes   streams   intervals/s   per-node/s   redirects   wall ms\n")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %5d   %7d   %11.0f   %10.0f   %9d   %7.0f\n",
			p.Nodes, p.Streams, p.IntervalsPerSec, p.PerNodePerSec, p.Redirects, p.WallMillis)
	}
	return sb.String()
}
