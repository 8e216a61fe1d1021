package sim

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// nodeState is a node's MAC association state.
type nodeState uint8

const (
	stateIdle nodeState = iota
	stateScanning
	stateWaitAssoc
	stateJoined
)

// outgoing is one frame queued for CSMA-CA transmission.
type outgoing struct {
	kind    frameKind
	mode    targetMode
	needAck bool
	frame   *ieee802154.MACFrame
	psdu    []byte
	to      int
	// answers is the Seq of the intruder frame this one replies to, zero
	// for the mesh's own traffic.
	answers uint64

	retries int // acknowledged-retransmission count
	be      int // current backoff exponent
	ncb     int // CSMA backoff attempts this transmission
}

// node is one simulated device. All mutation happens on the event loop;
// nothing here is touched concurrently.
type node struct {
	id   int
	spec NodeSpec
	rng  *rand.Rand

	// ext is the 64-bit extended (IEEE) address; short is the 16-bit
	// address assigned at association (0xFFFE before). PAN-ID conflict
	// arbitration compares ext addresses.
	ext   uint64
	short uint16
	pan   uint16

	state   nodeState
	seq     uint8
	joinGen uint64 // invalidates stale scan/association timeouts

	parentID    int
	parentShort uint16
	heard       []beaconHeard
	scanRetries int

	txBusy   bool
	queue    []*outgoing
	awaiting *outgoing
	ackGen   uint64
	// radioBusyUntil is when the node's own transceiver frees up —
	// transmissions in flight plus acknowledgements it has committed to.
	// A half-duplex radio neither passes CCA nor receives before then.
	radioBusyUntil time.Duration

	permitJoin bool
	// security, when set, seals the node's readings and AT responses and
	// drops data frames that do not authenticate.
	security *ieee802154.SecurityContext

	reading uint16
}

// beaconHeard is one beacon collected during an active scan.
type beaconHeard struct {
	src   int
	short uint16
	pan   uint16
}

// ExtAddrBase is the OUI prefix simulated extended addresses share with
// the paper's XBee hardware.
const ExtAddrBase = 0x00124b00_00000000

// Config parameterises a virtual network. Zero values select the
// defaults of the paper's setup (2-second cadence, 25 dB links).
type Config struct {
	// Seed drives every random draw via per-node splitmix64 streams.
	Seed int64
	// SNRdB is the per-link signal-to-noise ratio handed to the virtual
	// medium's erasure model. Default 25.
	SNRdB float64
	// BeaconInterval is the coordinator/router beacon cadence. Default 2s.
	BeaconInterval time.Duration
	// DataInterval is the end-device (and router) reporting cadence.
	// Default 2s.
	DataInterval time.Duration
	// stallAfter is how long a blocked observer send may last before
	// the health component degrades. Default 2s of wall time.
	stallAfter time.Duration

	// Fidelity selects the frame-delivery tier of the victim links
	// (radio.FidelitySymbol or radio.FidelityFrame; zero selects
	// FidelityFrame, the erasure model meshes have always run on).
	// FidelityIQ is rejected: the mesh simulator never synthesises
	// waveforms. Same-seed runs are bit-identical within a tier, but
	// the tiers draw from their calibrated distributions differently,
	// so digests differ across tiers.
	Fidelity radio.Fidelity

	// Registry, Trace and Flight receive the simulator's telemetry;
	// nil falls back to the process defaults.
	Registry *obs.Registry
	Trace    *obs.Trace
	Flight   *obs.Flight

	// Telemetry enables the simulation observatory: per-node and
	// per-link counters, join-latency tracking and the radio energy
	// accountant. Off by default — the uninstrumented event loop stays
	// the benchmark baseline.
	Telemetry bool
	// Chip selects the energy accountant's current-draw profile
	// ("cc2652", "nrf52840"; default cc2652).
	Chip string
	// TraceWriter, when non-nil, receives the virtual-time trace as
	// Chrome trace-event JSON, streamed as the run executes. Setting it
	// implies Telemetry. Call CloseTrace after the final Run to
	// terminate the document.
	TraceWriter io.Writer
}

func (c *Config) fill() {
	if c.SNRdB == 0 {
		c.SNRdB = 25
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = 2 * time.Second
	}
	if c.DataInterval <= 0 {
		c.DataInterval = 2 * time.Second
	}
	if c.stallAfter <= 0 {
		c.stallAfter = 2 * time.Second
	}
	if c.Fidelity == 0 {
		c.Fidelity = radio.FidelityFrame
	}
	if c.TraceWriter != nil {
		c.Telemetry = true
	}
}

// Stats is a snapshot of the network's counters. Read it between Run
// calls — it is not synchronised against a running event loop.
type Stats struct {
	Nodes, Joined int

	Frames     uint64 // transmissions put on the air
	Beacons    uint64
	DataFrames uint64
	Acks       uint64
	Commands   uint64

	Collisions   uint64 // transmissions that overlapped another
	Backoffs     uint64 // CSMA backoff draws
	CCAFailures  uint64 // transmissions abandoned after macMaxCSMABackoffs
	Retries      uint64 // acknowledged retransmissions attempted
	AckFailures  uint64 // transmissions abandoned after macMaxFrameRetries
	Erasures     uint64 // deliveries lost to link noise
	DeafMisses   uint64 // deliveries missed by a half-duplex receiver mid-transmission
	Readings     uint64 // data frames accepted at a coordinator
	Forwarded    uint64 // data frames relayed by a router
	PANConflicts uint64 // coordinator PAN-ID rebinds
	Joins        uint64 // successful associations

	Injected          uint64 // intruder frames put on the air
	InjectedDelivered uint64 // intruder frames a victim MAC processed
	ChannelMigrations uint64 // nodes detached by a forged remote AT retune

	Events      uint64        // scheduler events executed
	VirtualTime time.Duration // current virtual clock
	HeapDepth   int           // event-heap high-water mark
}

// Network is a virtual-time Zigbee mesh: topology-instantiated node
// actors, per-cell collision domains and a frame-level radio medium,
// all driven by one Scheduler. The event loop is single-threaded;
// concurrency happens at the observer boundary (Observe channels are
// safe to consume from other goroutines while Run executes).
type Network struct {
	cfg   Config
	topo  Topology
	sched *Scheduler
	med   *radio.Medium
	ch    radio.Channel // calibrated delivery tier (symbol or frame)

	nodes    []*node
	topoKids [][]int // topology children by node index
	rootOf   []int   // root coordinator by node index
	coordsOn map[int][]int
	freq     map[int]float64
	airs     map[int]*air

	frameSeq  uint64
	allocNext map[int]uint16  // per-root short-address allocator
	static    map[uint16]bool // static short addresses the allocator skips

	taps      map[int][]func(FrameCapture)
	observers map[int][]*Observer

	stats Stats

	// telemetry, pre-resolved so the event loop never does registry
	// lookups.
	reg         *obs.Registry
	trace       *obs.Trace
	flight      *obs.Flight
	cFrames     map[frameKind]*obs.Counter
	cCollisions *obs.Counter
	cBackoffs   *obs.Counter
	cCCAFail    *obs.Counter
	cRetries    *obs.Counter
	cAckFail    *obs.Counter
	cErasures   *obs.Counter
	cDeaf       *obs.Counter
	cJoins      *obs.Counter
	cConflicts  *obs.Counter
	cEvents     *obs.Counter

	cInjected          *obs.Counter
	cInjectedDelivered *obs.Counter
	cMigrations        *obs.Counter
	gVirtual           *obs.Gauge
	gHeapDepth         *obs.Gauge
	gJoined            *obs.Gauge

	lastEvents     uint64
	depthThreshold int

	// tel is the simulation observatory (nil when Config.Telemetry is
	// off — every hook in the MAC path nil-checks it, keeping the
	// uninstrumented loop free of observatory work).
	tel        *telemetry
	heapGauges *HeapGauges

	// snapshot published for the /debug/sim handler; refreshed at batch
	// boundaries once a handler exists.
	wantSnapshot atomic.Bool
	snap         atomic.Pointer[Snapshot]

	// observer-stall bookkeeping, read by the health probe from any
	// goroutine.
	sendBlockedSince atomic.Int64 // wall unix nanos; 0 = not blocked
	running          atomic.Bool
}

// New instantiates a topology into a virtual network at time zero:
// coordinators and statically addressed nodes come up joined,
// everything else starts its first active scan within joinSpread.
func New(topo Topology, cfg Config) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	sampleRate := 8 * float64(ieee802154.ChipRate)
	med, err := radio.NewMedium(sampleRate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	med.Obs = cfg.Registry
	if cfg.Fidelity == radio.FidelityIQ {
		return nil, fmt.Errorf("sim: FidelityIQ is not supported (the mesh simulator never synthesises waveforms); use symbol or frame")
	}
	ch, err := med.Channel(cfg.Fidelity, radio.ChannelOptions{Profile: radio.ProfileOQPSK})
	if err != nil {
		return nil, err
	}

	nw := &Network{
		cfg:       cfg,
		topo:      topo,
		sched:     NewScheduler(),
		med:       med,
		ch:        ch,
		coordsOn:  make(map[int][]int),
		freq:      make(map[int]float64),
		airs:      make(map[int]*air),
		allocNext: make(map[int]uint16),
		taps:      make(map[int][]func(FrameCapture)),
		observers: make(map[int][]*Observer),

		reg:            obs.Or(cfg.Registry),
		trace:          cfg.Trace,
		flight:         obs.OrFlight(cfg.Flight),
		depthThreshold: 64,
	}
	nw.cFrames = map[frameKind]*obs.Counter{}
	for _, k := range []frameKind{kindBeacon, kindBeaconRequest, kindAssocRequest, kindAssocResponse, kindData, kindAck} {
		nw.cFrames[k] = nw.reg.Counter("wazabee_sim_frames_total", "kind", k.String())
	}
	nw.cCollisions = nw.reg.Counter("wazabee_sim_collisions_total")
	nw.cBackoffs = nw.reg.Counter("wazabee_sim_backoffs_total")
	nw.cCCAFail = nw.reg.Counter("wazabee_sim_cca_failures_total")
	nw.cRetries = nw.reg.Counter("wazabee_sim_retries_total")
	nw.cAckFail = nw.reg.Counter("wazabee_sim_ack_failures_total")
	nw.cErasures = nw.reg.Counter("wazabee_sim_erasures_total")
	nw.cDeaf = nw.reg.Counter("wazabee_sim_deaf_misses_total")
	nw.cJoins = nw.reg.Counter("wazabee_sim_joins_total")
	nw.cConflicts = nw.reg.Counter("wazabee_sim_pan_conflicts_total")
	nw.cInjected = nw.reg.Counter("wazabee_sim_injected_total", "result", "offered")
	nw.cInjectedDelivered = nw.reg.Counter("wazabee_sim_injected_total", "result", "delivered")
	nw.cMigrations = nw.reg.Counter("wazabee_sim_channel_migrations_total")
	nw.cEvents = nw.reg.Counter("wazabee_sim_events_total")
	nw.gVirtual = nw.reg.Gauge("wazabee_sim_virtual_seconds")
	nw.gHeapDepth = nw.reg.Gauge("wazabee_sim_heap_depth")
	nw.gJoined = nw.reg.Gauge("wazabee_sim_nodes", "state", "joined")
	nw.heapGauges = NewHeapGauges(nw.reg, "virtual")

	if cfg.Telemetry {
		profile, err := ProfileByName(cfg.Chip)
		if err != nil {
			return nil, err
		}
		var tw *traceWriter
		if cfg.TraceWriter != nil {
			tw = newTraceWriter(cfg.TraceWriter, topo)
		}
		nw.tel = newTelemetry(topo, profile, nw.reg, tw)
	}

	nw.build()
	return nw, nil
}

// build creates node actors and schedules their opening moves.
func (nw *Network) build() {
	specs := nw.topo.Nodes
	nw.nodes = make([]*node, len(specs))
	nw.topoKids = make([][]int, len(specs))
	nw.rootOf = make([]int, len(specs))
	roleCount := map[Role]int{}
	for i, spec := range specs {
		n := &node{
			id:       i,
			spec:     spec,
			rng:      nodeRand(nw.cfg.Seed, i),
			ext:      ExtAddrBase | uint64(i+1),
			short:    ieee802154.NoShortAddress,
			pan:      spec.PAN,
			parentID: spec.Parent,
		}
		nw.nodes[i] = n
		roleCount[spec.Role]++
		if spec.Role == RoleCoordinator {
			nw.rootOf[i] = i
			nw.coordsOn[spec.Channel] = append(nw.coordsOn[spec.Channel], i)
		} else {
			nw.rootOf[i] = nw.rootOf[spec.Parent]
			nw.topoKids[spec.Parent] = append(nw.topoKids[spec.Parent], i)
		}
		if _, ok := nw.freq[spec.Channel]; !ok {
			f, _ := ieee802154.ChannelFrequencyMHz(spec.Channel)
			nw.freq[spec.Channel] = f
		}
	}
	for role, count := range roleCount {
		nw.reg.Gauge("wazabee_sim_nodes", "role", role.String()).Set(float64(count))
	}
	nw.stats.Nodes = len(specs)

	for _, n := range nw.nodes {
		n := n
		if n.spec.Role == RoleCoordinator {
			nw.allocNext[n.id] = 1
		}
		if n.spec.Role != RoleCoordinator && n.spec.Short == 0 {
			nw.sched.At(nw.jitter(n, joinSpread), func() { nw.startScan(n) })
			continue
		}
		// Coordinators and statically addressed nodes come up joined:
		// zero join latency.
		n.short = n.spec.Short
		if n.spec.Short != 0 {
			if nw.static == nil {
				nw.static = map[uint16]bool{}
			}
			nw.static[n.spec.Short] = true
		}
		if n.spec.Role != RoleCoordinator {
			p := nw.nodes[n.spec.Parent]
			n.parentShort = p.short
		}
		n.state = stateJoined
		nw.stats.Joined++
		if nw.tel != nil {
			nw.tel.nodes[n.id].joinedAt = 0
		}
		nw.goLive(n)
	}
	nw.noteJoinedGauge()
}

// jitter draws a uniform delay in [0, d) from the node's private stream.
func (nw *Network) jitter(n *node, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(n.rng.Int63n(int64(d)))
}

// cell returns the collision domain owned by a join-capable node.
func (nw *Network) cell(owner int) *air {
	a := nw.airs[owner]
	if a == nil {
		a = &air{}
		nw.airs[owner] = a
	}
	return a
}

// cellOwners lists the owners of the collision domains a node's
// transmissions occupy: its parent's cell (uplink receiver's
// neighborhood) and, for join-capable nodes, their own cell. -1 marks an
// unused slot.
func (nw *Network) cellOwners(n *node) [2]int {
	if n.spec.Role == RoleCoordinator {
		return [2]int{n.id, -1}
	}
	if n.spec.Role == RoleRouter {
		return [2]int{n.parentID, n.id}
	}
	return [2]int{n.parentID, -1}
}

// cellsOf resolves cellOwners to the air instances.
func (nw *Network) cellsOf(n *node) [2]*air {
	var cells [2]*air
	for i, owner := range nw.cellOwners(n) {
		if owner >= 0 {
			cells[i] = nw.cell(owner)
		}
	}
	return cells
}

// destCellOwner resolves the cell a transmission's receiver lives in:
// join-capable receivers own their cell, end devices live in their
// parent's, broadcasts are received in the sender's own neighborhood.
func (nw *Network) destCellOwner(n *node, out *outgoing) int {
	switch out.mode {
	case targetNode:
		if out.to < 0 || out.to >= len(nw.nodes) {
			// Replies to an out-of-topology intruder go out in the
			// sender's own neighborhood: real airtime and contention,
			// no in-topology receiver.
			if n.spec.Role == RoleEndDevice {
				return n.parentID
			}
			return n.id
		}
		rx := nw.nodes[out.to]
		if rx.spec.Role == RoleEndDevice {
			return rx.parentID
		}
		return rx.id
	case targetParent:
		return n.parentID
	default: // targetBeaconAudience
		if n.spec.Role == RoleEndDevice {
			return n.parentID
		}
		return n.id
	}
}

// Now returns the virtual clock.
func (nw *Network) Now() time.Duration { return nw.sched.Now() }

// Scheduler exposes the underlying event queue (benchmarks and the
// pacer-driven integrations need it).
func (nw *Network) Scheduler() *Scheduler { return nw.sched }

// Run executes every event due at or before the virtual instant t. It
// is the batch driver: splitting one Run into any sequence of smaller
// advances executes the identical event sequence.
func (nw *Network) Run(t time.Duration) {
	end := obs.Stage(nw.reg, nw.trace, "sim_run")
	defer end()
	nw.running.Store(true)
	defer nw.running.Store(false)
	nw.sched.RunUntil(t)
	nw.afterBatch()
}

// Step executes a single event, returning false when the queue is empty.
func (nw *Network) Step() bool {
	ok := nw.sched.Step()
	nw.afterBatch()
	return ok
}

// afterBatch refreshes the batch-cadence telemetry: event counters,
// clock and heap gauges, and flight-recorder entries when the heap depth
// crosses a new doubling threshold.
func (nw *Network) afterBatch() {
	executed := nw.sched.Executed()
	if delta := executed - nw.lastEvents; delta > 0 {
		nw.cEvents.Add(delta)
		nw.lastEvents = executed
	}
	nw.stats.Events = executed
	nw.stats.VirtualTime = nw.sched.Now()
	nw.stats.HeapDepth = nw.sched.MaxDepth()
	nw.gVirtual.Set(nw.sched.Now().Seconds())
	nw.gHeapDepth.Set(float64(nw.sched.MaxDepth()))
	nw.heapGauges.Publish(nw.sched)
	if nw.tel != nil {
		nw.tel.publish(nw.sched.Now())
	}
	if nw.wantSnapshot.Load() {
		nw.snap.Store(nw.Snapshot())
	}
	if d := nw.sched.MaxDepth(); d >= nw.depthThreshold {
		for nw.depthThreshold <= d {
			nw.depthThreshold *= 2
		}
		nw.flight.Record(obs.FlightEvent{
			Kind: "state", Component: "sim", Frame: -1,
			Detail: fmt.Sprintf("event heap high-water %d (pending %d)", d, nw.sched.Len()),
		})
	}
}

// noteJoinedGauge refreshes the joined-nodes gauge.
func (nw *Network) noteJoinedGauge() {
	nw.gJoined.Set(float64(nw.stats.Joined))
}

// CloseTrace finishes the virtual-time trace: it closes every node's
// open radio-state slice at the current virtual instant and terminates
// the JSON document. Call once after the final Run; a network without a
// trace writer returns nil. The trailing flush depends only on the final
// virtual time, so traces stay byte-identical however the run was
// batched.
func (nw *Network) CloseTrace() error {
	if nw.tel == nil || nw.tel.trace == nil {
		return nil
	}
	now := nw.sched.Now()
	for i := range nw.nodes {
		nw.tel.radioTransition(i, now, RadioIdle)
	}
	return nw.tel.trace.Close()
}

// Stats snapshots the counters. Call between Run invocations.
func (nw *Network) Stats() Stats {
	s := nw.stats
	s.Events = nw.sched.Executed()
	s.VirtualTime = nw.sched.Now()
	s.HeapDepth = nw.sched.MaxDepth()
	return s
}

// NodeInfo describes one node's identity and association outcome.
type NodeInfo struct {
	ID      int
	Role    Role
	Ext     uint64
	Short   uint16
	PAN     uint16
	Channel int
	Joined  bool
}

// Node returns the current state of node i.
func (nw *Network) Node(i int) NodeInfo {
	n := nw.nodes[i]
	return NodeInfo{
		ID: i, Role: n.spec.Role, Ext: n.ext, Short: n.short,
		PAN: n.pan, Channel: n.spec.Channel, Joined: n.state == stateJoined,
	}
}

// SetPermitJoin opens or closes node i to association requests. A
// closed coordinator or router answers them with an access-denied
// response; joined coordinators and routers answer beacon requests
// either way. Call between Run invocations.
func (nw *Network) SetPermitJoin(i int, permit bool) {
	nw.nodes[i].permitJoin = permit
}

// Secure enables CCM* link-layer security on node i under the shared
// network key, with the node's extended address as nonce source. A
// secured node seals its readings and AT responses, and drops — without
// acknowledging — any data frame or remote AT command that does not
// authenticate. Call between Run invocations.
func (nw *Network) Secure(i int, key []byte, level ieee802154.SecurityLevel) error {
	ctx, err := ieee802154.NewSecurityContext(key, nw.nodes[i].ext, level)
	if err != nil {
		return err
	}
	nw.nodes[i].security = ctx
	return nil
}

// Reading is one entry of a coordinator's display log.
type Reading struct {
	// Src is the short address the frame claimed as its source.
	Src uint16
	// Seq is the MAC sequence number.
	Seq uint8
	// Value is the reported integer.
	Value uint16
}

// Display returns the readings coordinator i accepted, in arrival order.
// The observatory keeps the log, so it is nil when Config.Telemetry is
// off. Call between Run invocations; the slice must not be modified.
func (nw *Network) Display(i int) []Reading {
	if nw.tel == nil {
		return nil
	}
	return nw.tel.display[i]
}

// RegisterHealth registers the simulator with a health registry: the
// component degrades when an observer send has been blocked for longer
// than two seconds — the signature a stalled consumer leaves on a
// virtual-time loop, where "the event loop makes no progress" and "an
// observer stopped draining" are the same condition.
func (nw *Network) RegisterHealth(h *obs.Health) *obs.HealthComponent {
	var c *obs.HealthComponent
	c = h.Register("sim", false, func() error {
		since := nw.sendBlockedSince.Load()
		if since != 0 {
			blocked := time.Since(time.Unix(0, since))
			if blocked > nw.cfg.stallAfter {
				c.SetDegraded(fmt.Sprintf("event loop stalled %v on an observer send", blocked.Round(time.Millisecond)))
				return nil
			}
		}
		c.SetOK()
		return nil
	})
	return c
}
