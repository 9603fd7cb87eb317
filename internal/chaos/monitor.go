package chaos

import (
	"fmt"

	"centralium/internal/telemetry"
	"centralium/internal/traffic"
)

// Monitor is the continuous invariant checker: it attaches to the
// fabric's telemetry tap (the PR-1 streaming plane) to learn when routing
// state changed, and to the engine's event hook to re-propagate the
// traffic matrix and check the data-plane invariants at every dirty
// sampling point. Violations observed inside a fault disturbance window
// are flagged InGrace; the rest are "effective" — turbulence the fleet
// produced without an active excuse.
//
// The monitor implements telemetry.Tap; compose it with other taps via
// telemetry.MultiTap if the run also streams to a collector.
type Monitor struct {
	cfg CheckConfig
	inj *Injector // nil means nothing is ever in grace
	// SampleEvery rate-limits propagation: check every Nth engine event
	// (only when routing state is dirty). 1 = every event.
	SampleEvery int

	pr     *traffic.Propagator
	dirty  bool
	events int

	violations []Violation
	// transitions logs violation onsets and clears (not every dirty
	// sample), keeping the canonical log readable while still
	// deterministic.
	transitions []string
	active      map[string]bool // invariant -> currently violated
}

// NewMonitor builds a monitor over the same scope as CheckQuiescent.
func NewMonitor(cfg CheckConfig, inj *Injector) *Monitor {
	return &Monitor{
		cfg:         cfg,
		inj:         inj,
		SampleEvery: 1,
		pr:          &traffic.Propagator{Net: cfg.Net},
		active:      make(map[string]bool),
	}
}

// Attach wires the monitor into the network: speaker taps for dirtiness,
// the engine hook for sampling. Call before the activity to observe.
func (m *Monitor) Attach() {
	m.cfg.Net.SetTap(m)
	m.cfg.Net.OnEvent(m.sample)
}

// Emit implements telemetry.Tap: any event that changes routing state
// marks the fleet dirty for the next sample.
func (m *Monitor) Emit(ev telemetry.Event) {
	if ev.Kind.ChangesRouting() {
		m.dirty = true
	}
}

// Violations returns every continuous observation, in virtual-time order.
func (m *Monitor) Violations() []Violation { return m.violations }

// Raw counts all continuous violations, grace or not.
func (m *Monitor) Raw() int { return len(m.violations) }

// Effective counts continuous violations outside every disturbance
// window — the ones with no fault to blame.
func (m *Monitor) Effective() int {
	n := 0
	for _, v := range m.violations {
		if !v.InGrace {
			n++
		}
	}
	return n
}

// Transitions returns the onset/clear log lines for the canonical run
// log.
func (m *Monitor) Transitions() []string { return m.transitions }

// sample runs the data-plane checks if routing state changed since the
// last look.
func (m *Monitor) sample(now int64) {
	m.events++
	if !m.dirty || m.events%m.SampleEvery != 0 {
		return
	}
	m.dirty = false
	inGrace := m.inj != nil && m.inj.DisturbedAt(now)

	res := m.pr.Run(m.cfg.Demands)
	m.observe(InvNoLoop, res.HasLoop(), now, inGrace,
		fmt.Sprintf("%.4f circulating", res.Looped/max1(res.Injected)))
	m.observe(InvNoBlackhole, res.BlackholedFraction() > 1e-9, now, inGrace,
		fmt.Sprintf("%.4f black-holed", res.BlackholedFraction()))
}

// observe records a violation sample and logs onset/clear transitions.
func (m *Monitor) observe(invariant string, violated bool, now int64, inGrace bool, detail string) {
	was := m.active[invariant]
	if violated {
		m.violations = append(m.violations, Violation{
			Invariant: invariant, Time: now, InGrace: inGrace, Detail: detail,
		})
		if !was {
			m.active[invariant] = true
			g := ""
			if inGrace {
				g = " grace"
			}
			m.transitions = append(m.transitions, fmt.Sprintf("t=%d onset %s%s: %s", now, invariant, g, detail))
		}
	} else if was {
		m.active[invariant] = false
		m.transitions = append(m.transitions, fmt.Sprintf("t=%d clear %s", now, invariant))
	}
}
