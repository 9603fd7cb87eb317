package chaos

import (
	"fmt"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// resetHold is how long a bounced session stays down before
// re-establishing.
const resetHold = time.Millisecond

// Injector replays a Plan against a network on the virtual clock. It also
// tracks the union of disturbance windows — fault activity plus a grace
// tail — so the continuous checkers can tell fault-induced turbulence
// from violations the system has no excuse for.
type Injector struct {
	net   *fabric.Network
	plan  Plan
	grace time.Duration

	delayUntil map[bgp.SessionID]int64
	delayExtra map[bgp.SessionID]time.Duration
	dropUntil  map[bgp.SessionID]int64
	dropped    map[bgp.SessionID]int

	disturbedUntil int64
	injected       int
	suppressed     int
	log            []string
}

// NewInjector prepares (but does not arm) an injector. grace is the tail
// past each fault's restore during which violations are excused while the
// protocol reconverges (default 150ms).
func NewInjector(n *fabric.Network, plan Plan, grace time.Duration) *Injector {
	if grace <= 0 {
		grace = 150 * time.Millisecond
	}
	return &Injector{
		net:        n,
		plan:       plan,
		grace:      grace,
		delayUntil: make(map[bgp.SessionID]int64),
		delayExtra: make(map[bgp.SessionID]time.Duration),
		dropUntil:  make(map[bgp.SessionID]int64),
		dropped:    make(map[bgp.SessionID]int),
	}
}

// Arm installs the message perturber and schedules every planned fault
// relative to now. Suppression decisions happen at fire time, against the
// fleet state the fault actually meets.
func (i *Injector) Arm() {
	i.net.SetPerturber(i.perturb)
	for _, f := range i.plan.Faults {
		f := f
		i.net.After(f.At, func() { i.fire(f) })
	}
}

// Injected returns how many faults actually fired.
func (i *Injector) Injected() int { return i.injected }

// Suppressed returns how many faults were gated off at fire time.
func (i *Injector) Suppressed() int { return i.suppressed }

// Log returns the canonical injection log: one line per fired, suppressed,
// or completed fault, in virtual-time order. Under a fixed seed it is
// byte-identical across runs.
func (i *Injector) Log() []string { return i.log }

// DisturbedAt reports whether virtual time t falls inside any fault's
// disturbance window (fault activity plus the grace tail).
func (i *Injector) DisturbedAt(t int64) bool { return t < i.disturbedUntil }

// WrapDeploy applies the plan's controller push delay to an RPA deploy
// hook. With no push delay planned it returns the hook unchanged.
func (i *Injector) WrapDeploy(push controller.DeployFunc) controller.DeployFunc {
	if i.plan.PushDelay == 0 {
		return push
	}
	return func(dev topo.DeviceID, cfg *core.Config) error {
		i.logf("t=%d delay-push device=%s delay=%s", i.net.Now(), dev, i.plan.PushDelay)
		i.net.After(i.plan.PushDelay, func() {
			if err := push(dev, cfg); err != nil {
				panic(fmt.Sprintf("chaos: delayed RPA push to %s failed: %v", dev, err))
			}
		})
		return nil
	}
}

func (i *Injector) logf(format string, args ...any) {
	i.log = append(i.log, fmt.Sprintf(format, args...))
}

// disturb extends the disturbance window to cover a fault that is active
// until `until` (virtual ns), plus the grace tail.
func (i *Injector) disturb(until int64) {
	until += int64(i.grace)
	if until > i.disturbedUntil {
		i.disturbedUntil = until
	}
}

// severable reports whether a session can be taken down without cutting
// off either endpoint entirely: both ends must keep at least one other
// live session. This bounds blast radius — chaos probes resilience, it
// does not partition the fleet.
func (i *Injector) severable(s fabric.SessionInfo) bool {
	return i.net.LiveSessions(s.A) >= 2 && i.net.LiveSessions(s.B) >= 2
}

func (i *Injector) sessionInfo(id bgp.SessionID) (fabric.SessionInfo, bool) {
	for _, s := range i.net.SessionList() {
		if s.ID == id {
			return s, true
		}
	}
	return fabric.SessionInfo{}, false
}

// fire applies one fault now, or suppresses it if firing would exceed the
// allowed blast radius. Every outcome is logged.
func (i *Injector) fire(f Fault) {
	now := i.net.Now()
	switch f.Kind {
	case FaultLinkFlap, FaultSessionReset, FaultDropUpdates, FaultDelayUpdates:
		s, ok := i.sessionInfo(f.Session)
		if !ok || !s.Up {
			i.suppress(now, f, "session down")
			return
		}
		if f.Kind != FaultDelayUpdates && !i.severable(s) {
			i.suppress(now, f, "last live session")
			return
		}
	case FaultRestart:
		node := i.net.Node(f.Device)
		if node == nil || !node.Up() {
			i.suppress(now, f, "device down")
			return
		}
		for _, s := range i.net.SessionList() {
			if !s.Up || (s.A != f.Device && s.B != f.Device) {
				continue
			}
			peer := s.A
			if peer == f.Device {
				peer = s.B
			}
			if i.net.LiveSessions(peer) < 2 {
				i.suppress(now, f, "would isolate "+string(peer))
				return
			}
		}
	}

	i.injected++
	i.logf("t=%d inject %s", now, f)
	switch f.Kind {
	case FaultLinkFlap:
		i.net.SetSessionUp(f.Session, false)
		i.net.After(f.Duration, func() { i.net.SetSessionUp(f.Session, true) })
		i.disturb(now + int64(f.Duration))
	case FaultSessionReset:
		i.resetSession(f.Session)
		i.disturb(now + int64(resetHold))
	case FaultDelayUpdates:
		i.delayUntil[f.Session] = now + int64(f.Duration)
		i.delayExtra[f.Session] = f.Delay
		// Delayed messages can land up to Delay past the window.
		i.disturb(now + int64(f.Duration) + int64(f.Delay))
	case FaultDropUpdates:
		i.dropUntil[f.Session] = now + int64(f.Duration)
		i.net.After(f.Duration, func() {
			delete(i.dropUntil, f.Session)
			n := i.dropped[f.Session]
			delete(i.dropped, f.Session)
			i.logf("t=%d drop-window-end session=%s dropped=%d", i.net.Now(), f.Session, n)
			// The broken TCP stream forces a session reset to resync.
			i.resetSession(f.Session)
		})
		i.disturb(now + int64(f.Duration) + int64(resetHold))
	case FaultRestart:
		i.net.RestartDevice(f.Device, f.Duration, f.WarmFIB)
		i.disturb(now + int64(f.Duration))
	}
}

func (i *Injector) suppress(now int64, f Fault, reason string) {
	i.suppressed++
	i.logf("t=%d suppress %s reason=%q", now, f, reason)
}

// resetSession bounces a session: down now, up after resetHold (gated on
// both endpoints still being up, as always).
func (i *Injector) resetSession(id bgp.SessionID) {
	i.net.SetSessionUp(id, false)
	i.net.After(resetHold, func() { i.net.SetSessionUp(id, true) })
}

// perturb is the fabric message hook: drop windows discard, delay windows
// stretch.
func (i *Injector) perturb(sess bgp.SessionID, from, to topo.DeviceID, u bgp.Update) fabric.Perturbation {
	now := i.net.Now()
	if until, ok := i.dropUntil[sess]; ok && now < until {
		i.dropped[sess]++
		return fabric.Perturbation{Drop: true}
	}
	if until, ok := i.delayUntil[sess]; ok && now < until {
		return fabric.Perturbation{ExtraDelay: i.delayExtra[sess]}
	}
	return fabric.Perturbation{}
}
