// Package bgp implements the per-switch BGP-4 speaker used by the emulated
// fabric: Adj-RIB-In, the decision process, ECMP/WCMP multipath, policy
// hooks, and the RPA integration points of the paper's Figure 6. The
// speaker is a deterministic state machine — it never talks to the network
// itself; the fabric engine feeds it events and drains its outbox.
package bgp

import (
	"net/netip"

	"centralium/internal/core"
	"centralium/internal/fib"
)

// SessionID names one BGP session. Parallel sessions between the same pair
// of devices have distinct IDs (Figure 5 relies on this).
type SessionID string

// Update is one emulation-level BGP UPDATE for a single prefix. (The wire
// codec in bgp/wire carries the same information in RFC 4271 framing; the
// event engine uses this struct form directly.)
type Update struct {
	Prefix   netip.Prefix
	Withdraw bool

	ASPath      []uint32
	Communities []string
	Origin      core.Origin
	MED         uint32

	// LinkBandwidthGbps mirrors the link-bandwidth extended community; the
	// sender sets it in distributed-WCMP mode.
	LinkBandwidthGbps float64
}

// WCMPMode selects the speaker's native traffic-distribution algorithm.
type WCMPMode int

// WCMP modes.
const (
	// WCMPOff hashes equally over the multipath set (ECMP).
	WCMPOff WCMPMode = iota
	// WCMPDistributed derives weights from peer-advertised link bandwidth
	// (Section 2's distributed WCMP) and re-advertises aggregate capacity
	// downstream. This is the mode that exhibits the Section 3.4 transient
	// state explosion.
	WCMPDistributed
)

// AdvertiseMode selects which of the selected paths an RPA-selecting
// speaker advertises to peers.
type AdvertiseMode int

// Advertisement modes.
const (
	// AdvertiseLeastFavorable advertises the path with the least favorable
	// attributes (longest AS path) among those selected for forwarding —
	// the loop-avoidance rule of Section 5.3.1.
	AdvertiseLeastFavorable AdvertiseMode = iota
	// AdvertiseBest advertises the best selected path. This is the naive
	// rule that Figure 9 shows installs a persistent routing loop; kept as
	// an ablation knob.
	AdvertiseBest
)

// Config parameterizes one speaker.
type Config struct {
	ID  string // device name
	ASN uint32

	// Multipath enables ECMP across equally-preferred paths; all fabric
	// switches run with it on, as in production.
	Multipath bool

	// WCMP selects the native weight derivation.
	WCMP WCMPMode

	// Advertise selects the RPA advertisement rule.
	Advertise AdvertiseMode

	// FIBGroupLimit is the hardware next-hop-group capacity.
	FIBGroupLimit int

	// VendorMinECMP, when > 0, emulates the vendor minimum-ECMP knob the
	// paper cites as the naive fix for the last-router problem (§3.3): the
	// speaker withdraws a route when its multipath set falls below the
	// threshold. Unlike the RPA equivalent it applies to all prefixes and
	// never keeps the FIB warm.
	VendorMinECMP int

	// LocalPref assigned to received routes (default 100).
	LocalPref uint32
}

// Stats counts speaker activity for experiments and debugging.
type Stats struct {
	UpdatesReceived int
	UpdatesSent     int
	WithdrawalsSent int
	LoopRejects     int // updates dropped by AS-path loop prevention
	FirstASRejects  int // updates dropped by eBGP enforce-first-AS
	FilterRejects   int // updates dropped by ingress policy / RouteFilter RPA
	Recomputes      int // per-prefix decision runs
	RPASelections   int // decisions resolved by a Path Selection RPA set
	NativeDecisions int // decisions resolved by native selection
	MnhWithdrawals  int // withdrawals forced by min-next-hop thresholds
	WeightOverrides int // decisions whose weights came from a Route Attribute RPA
}

// peer is the speaker-side state of one session.
type peer struct {
	session  SessionID
	device   string
	asn      uint32
	linkGbps float64
	prepend  int // export AS-path prepend toward this peer (maintenance policy)
}

// originInfo describes a locally originated prefix.
type originInfo struct {
	communities []string
	origin      core.Origin
	// bandwidthGbps seeds the link-bandwidth advertisement in WCMP mode.
	bandwidthGbps float64
	// installFIB controls whether a local-delivery FIB entry is installed
	// (true for real origins; false for advertised-on-behalf aggregates).
	installFIB bool
}

// adv is the content of the last advertisement sent on a session for a
// prefix, used to suppress duplicate updates.
type adv struct {
	pathKey string
	bw      float64
	// pathLen is the advertised AS-path length including this speaker's own
	// prepends; the invariant checkers compare it against the decision's
	// selected-path lengths (§5.3.1 consistency).
	pathLen int
}

// prefixState is per-prefix bookkeeping.
type prefixState struct {
	// rib is the prefix's Adj-RIB-In: the route received on each session
	// that holds one, sorted by session ID (the decision process's
	// candidate order). Only live peers appear: RemovePeer drops theirs.
	rib        []candidate
	advertised map[SessionID]adv
	// baseline is the high-water count of distinct candidate next-hop
	// devices, the denominator for percentage MinNextHop thresholds.
	baseline int
	// last records the outcome of the most recent decision run; hasLast
	// guards against reading a zero value before the first run.
	last    DecisionInfo
	hasLast bool

	// Incremental-engine derived state (see incremental.go). None of it is
	// serialized: SpeakerState — and therefore every snapshot fingerprint —
	// is identical across engine modes, and restore rebuilds it lazily.

	// prof is the dependency profile of the last tracked decision run.
	prof evalProfile
	// reachAdv is true when the last run reached the advertise step (the
	// only runs a new session, undrain, or egress-filter change can affect).
	reachAdv bool
	// repRoute/repSel are the run's representative routes for RPA dirty
	// tests: the first candidate (what PathSelection statement matching
	// keys on) and the first selected route (what RouteAttribute statement
	// matching keys on). hasRep/hasRepSel guard staleness.
	hasRep    bool
	repRoute  core.RouteAttrs
	hasRepSel bool
	repSel    core.RouteAttrs

	// Advertisement memo: the inputs of the last completed advertise loop.
	// A repeat call with equal inputs under the same advertisement epoch is
	// provably suppressed on every session, so the loop (and its per-session
	// path builds and duplicate-suppression keys) is skipped entirely.
	// Invalidated by any withdrawal and by every epoch bump.
	advOK    bool
	advEpoch uint64
	advFrom  SessionID
	advBW    float64
	advRoute core.RouteAttrs

	// FIB memo: the exact hop set last installed for the prefix. A repeat
	// install of an equal set is a same-key rewrite, replayed via
	// fib.Table.Touch without rebuilding the canonical group key.
	// Invalidated whenever the decision process removes the entry.
	fibOK   bool
	fibHops []fib.NextHop
}

// DecisionInfo snapshots the outcome of the last decision-process run for
// one prefix, for external invariant checking (the chaos harness) and the
// Section 7.2 debug tooling.
type DecisionInfo struct {
	// ViaRPA is true when a PathSelection RPA set governed the selection
	// (false for native selection, even under an RPA's native constraint).
	ViaRPA bool
	// MatchedSet names the winning path set when ViaRPA.
	MatchedSet string
	// Originated is true for locally originated prefixes (no selection ran).
	Originated bool
	// SelectedPaths is the number of routes chosen for forwarding.
	SelectedPaths int
	// DistinctNextHops is the number of distinct next-hop devices among the
	// selected routes.
	DistinctNextHops int
	// MnhRequired is the effective minimum-next-hop requirement that applied
	// (RPA BgpNativeMinNextHop or the vendor knob); zero when unconstrained.
	MnhRequired int
	// KeepWarmOnViolation mirrors KeepFibWarmIfMnhViolated for the prefix.
	KeepWarmOnViolation bool
	// MnhWithdrawn is true when the min-next-hop constraint forced a
	// withdrawal on this run.
	MnhWithdrawn bool
	// Withdrawn is true when the prefix was withdrawn from all peers for any
	// reason (no candidates, empty selection, or MnhWithdrawn).
	Withdrawn bool
	// AdvertisedPathLen is the AS-path length of the route chosen for
	// advertisement, before this speaker's own prepend (-1 when withdrawn).
	AdvertisedPathLen int
	// MaxSelectedPathLen is the longest AS path among the selected routes
	// (-1 when nothing was selected). Under AdvertiseLeastFavorable these
	// two must agree.
	MaxSelectedPathLen int
	// WeightMode records how forwarding weights were assigned: "rpa" (Route
	// Attribute override), "wcmp" (distributed bandwidth), or "ecmp".
	WeightMode string
}

// AdvertisedRoute is one Adj-RIB-Out entry: what this speaker last sent on
// a session for a prefix.
type AdvertisedRoute struct {
	// PathLen is the advertised AS-path length including own prepends.
	PathLen int
	// PathKey is the canonical advertisement identity (path + communities +
	// origin), matching the duplicate-suppression key.
	PathKey string
}

// OutMsg is one message the speaker wants delivered to the far end of a
// session. The engine drains these via TakeOutbox.
type OutMsg struct {
	Session SessionID
	Update  Update
}
