package bgp

// Checkpoint support: SpeakerState is the complete serializable state of a
// Speaker — configuration, peers, Adj-RIB-In, originated prefixes,
// per-prefix decision bookkeeping (Adj-RIB-Out, baselines, last decision),
// the deployed RPA config with its match cache, the FIB, and the activity
// counters. NewSpeakerFromState rebuilds an equivalent speaker by direct
// state injection: unlike AddPeer/Originate/SetRPA it runs no decision
// process and emits nothing, so restoring is side-effect free and a
// restored speaker continues byte-identically to the captured one.

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"centralium/internal/core"
	"centralium/internal/fib"
)

// PeerState is the serializable form of one session's peer record.
type PeerState struct {
	Session  SessionID
	Device   string
	ASN      uint32
	LinkGbps float64
	Prepend  int
}

// AdjRIBInState holds one session's received routes, sorted by prefix.
type AdjRIBInState struct {
	Session SessionID
	Routes  []core.RouteAttrs
}

// OriginatedState is the serializable form of one locally originated
// prefix.
type OriginatedState struct {
	Prefix        netip.Prefix
	Communities   []string
	Origin        core.Origin
	BandwidthGbps float64
	InstallFIB    bool
}

// AdvState is one Adj-RIB-Out entry: what was last advertised on a session
// for a prefix (the duplicate-suppression state).
type AdvState struct {
	Session SessionID
	PathKey string
	BW      float64
	PathLen int
}

// PrefixBookState is the per-prefix decision bookkeeping.
type PrefixBookState struct {
	Prefix     netip.Prefix
	Baseline   int
	HasLast    bool
	Last       DecisionInfo
	Advertised []AdvState // sorted by session
}

// SpeakerState is the complete serializable state of one speaker. All
// slices are sorted, so identical speakers export identical states.
type SpeakerState struct {
	Cfg     Config
	Drained bool
	Stats   Stats

	Peers      []PeerState       // sorted by session
	AdjIn      []AdjRIBInState   // one per peer session, sorted by session
	Originated []OriginatedState // sorted by prefix
	Prefixes   []PrefixBookState // sorted by prefix

	// RPA is the deployed core.Config as JSON; empty means no RPA.
	RPA   []byte
	Cache core.CacheState
	FIB   fib.TableState
}

func cloneAttrs(a core.RouteAttrs) core.RouteAttrs {
	a.ASPath = append([]uint32(nil), a.ASPath...)
	a.Communities = append([]string(nil), a.Communities...)
	return a
}

// ExportState captures the speaker for checkpointing. It fails if the
// outbox is non-empty: the fabric drains outboxes synchronously after
// every event, so pending messages mean the caller is checkpointing
// mid-event, where no consistent cut exists. The result shares no memory
// with the speaker.
func (s *Speaker) ExportState() (SpeakerState, error) {
	if len(s.outbox) > 0 {
		return SpeakerState{}, fmt.Errorf("bgp %s: %d undelivered outbox messages; checkpoint only between events", s.cfg.ID, len(s.outbox))
	}
	st := SpeakerState{Cfg: s.cfg, Drained: s.drained, Stats: s.stats}

	sessions := s.Peers()
	for _, sess := range sessions {
		pr := s.peers[sess]
		st.Peers = append(st.Peers, PeerState{
			Session: sess, Device: pr.device, ASN: pr.asn,
			LinkGbps: pr.linkGbps, Prepend: pr.prepend,
		})
		st.AdjIn = append(st.AdjIn, AdjRIBInState{Session: sess})
	}

	known := make([]netip.Prefix, 0, len(s.prefixes))
	for p := range s.prefixes {
		known = append(known, p)
	}
	sortPrefixes(known)
	// Walking prefixes in order fills each session's routes in prefix
	// order.
	for _, p := range known {
		for _, c := range s.prefixes[p].rib {
			i, _ := slices.BinarySearch(sessions, c.session)
			st.AdjIn[i].Routes = append(st.AdjIn[i].Routes, cloneAttrs(c.attrs))
		}
	}

	origins := make([]netip.Prefix, 0, len(s.originated))
	for p := range s.originated {
		origins = append(origins, p)
	}
	sortPrefixes(origins)
	for _, p := range origins {
		o := s.originated[p]
		st.Originated = append(st.Originated, OriginatedState{
			Prefix:        p,
			Communities:   append([]string(nil), o.communities...),
			Origin:        o.origin,
			BandwidthGbps: o.bandwidthGbps,
			InstallFIB:    o.installFIB,
		})
	}

	for _, p := range known {
		b := s.prefixes[p]
		pb := PrefixBookState{Prefix: p, Baseline: b.baseline, HasLast: b.hasLast, Last: b.last}
		sess := make([]SessionID, 0, len(b.advertised))
		for id := range b.advertised {
			sess = append(sess, id)
		}
		sort.Slice(sess, func(i, j int) bool { return sess[i] < sess[j] })
		for _, id := range sess {
			a := b.advertised[id]
			pb.Advertised = append(pb.Advertised, AdvState{
				Session: id, PathKey: a.pathKey, BW: a.bw, PathLen: a.pathLen,
			})
		}
		st.Prefixes = append(st.Prefixes, pb)
	}

	if !s.rpaCfg.IsEmpty() || s.rpaCfg.Version != 0 {
		data, err := json.Marshal(s.rpaCfg)
		if err != nil {
			return SpeakerState{}, fmt.Errorf("bgp %s: marshal RPA config: %w", s.cfg.ID, err)
		}
		st.RPA = data
	}
	st.Cache = s.rpa.Cache().ExportState()
	st.FIB = s.fibTbl.ExportState()
	return st, nil
}

// NewSpeakerFromState rebuilds a speaker from a checkpoint. The clock
// function plays the same role as in NewSpeaker. The speaker starts with
// no tap attached; the owner re-attaches telemetry after restore.
func NewSpeakerFromState(st SpeakerState, now func() int64) (*Speaker, error) {
	s := NewSpeaker(st.Cfg, now)
	s.drained = st.Drained
	s.stats = st.Stats

	for _, p := range st.Peers {
		if _, dup := s.peers[p.Session]; dup {
			return nil, fmt.Errorf("bgp %s: duplicate peer session %q in state", st.Cfg.ID, p.Session)
		}
		s.peers[p.Session] = &peer{
			session: p.Session, device: p.Device, asn: p.ASN,
			linkGbps: p.LinkGbps, prepend: p.Prepend,
		}
	}
	for _, rib := range st.AdjIn {
		if s.peers[rib.Session] == nil {
			return nil, fmt.Errorf("bgp %s: Adj-RIB-In for unknown session %q", st.Cfg.ID, rib.Session)
		}
		for _, r := range rib.Routes {
			s.state(r.Prefix).ribSet(rib.Session, cloneAttrs(r))
		}
	}
	for _, o := range st.Originated {
		s.originated[o.Prefix] = originInfo{
			communities:   append([]string(nil), o.Communities...),
			origin:        o.Origin,
			bandwidthGbps: o.BandwidthGbps,
			installFIB:    o.InstallFIB,
		}
	}
	for _, pb := range st.Prefixes {
		// The prefix's state may already hold its Adj-RIB-In.
		b := s.state(pb.Prefix)
		b.advertised = make(map[SessionID]adv, len(pb.Advertised))
		b.baseline, b.last, b.hasLast = pb.Baseline, pb.Last, pb.HasLast
		for _, a := range pb.Advertised {
			if s.peers[a.Session] == nil {
				return nil, fmt.Errorf("bgp %s: Adj-RIB-Out for unknown session %q", st.Cfg.ID, a.Session)
			}
			b.advertised[a.Session] = adv{pathKey: a.PathKey, bw: a.BW, pathLen: a.PathLen}
		}
	}

	if len(st.RPA) > 0 {
		var cfg core.Config
		if err := json.Unmarshal(st.RPA, &cfg); err != nil {
			return nil, fmt.Errorf("bgp %s: unmarshal RPA config: %w", st.Cfg.ID, err)
		}
		ev, err := core.NewEvaluator(&cfg)
		if err != nil {
			return nil, fmt.Errorf("bgp %s: recompile RPA config: %w", st.Cfg.ID, err)
		}
		s.rpa = ev
		s.rpaCfg = &cfg
	}
	s.rpa.Cache().RestoreState(st.Cache)
	s.fibTbl = fib.NewFromState(st.FIB)
	return s, nil
}
