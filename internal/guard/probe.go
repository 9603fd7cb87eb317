package guard

import (
	"fmt"

	"centralium/internal/fabric"
	"centralium/internal/telemetry"
	"centralium/internal/traffic"
)

// WaveMetrics is one wave attempt's measured transient — the guard's
// evidence base. It mirrors the planner's StepOutcome with the offender
// attribution the quarantine decision needs on top.
type WaveMetrics struct {
	// BlackholeNs is the integrated virtual time the workload's
	// black-holed fraction exceeded epsilon.
	BlackholeNs int64 `json:"blackhole_ns"`
	// PeakShare is the worst transient share on a watched device;
	// ShareDevice is the device that carried it.
	PeakShare   float64 `json:"peak_share"`
	ShareDevice string  `json:"share_device,omitempty"`
	// ConvergeNs is the wave's total virtual settle time.
	ConvergeNs int64 `json:"converge_ns"`
	// PeakNHG is the worst next-hop-group occupancy in FIB writes;
	// NHGDevice wrote it.
	PeakNHG   int    `json:"peak_nhg"`
	NHGDevice string `json:"nhg_device,omitempty"`
	// Churn counts routing events (Adj-RIB-In + best path).
	Churn int64 `json:"churn"`
	// SessionDowns counts BGP session-down events; DownDevices lists the
	// devices that reported them, in first-seen order.
	SessionDowns int64    `json:"session_downs"`
	DownDevices  []string `json:"down_devices,omitempty"`
	// Alerts counts detector alerts; AlertTags holds up to alertTagCap
	// "detector:device" tags in fire order, AlertDevices the devices.
	Alerts       int      `json:"alerts"`
	AlertTags    []string `json:"alert_tags,omitempty"`
	AlertDevices []string `json:"alert_devices,omitempty"`
	// Events is the engine event count the attempt consumed.
	Events int64 `json:"events"`
}

// alertTagCap bounds the alert evidence carried into violation details.
const alertTagCap = 6

// String is the decision log's metrics line.
func (m WaveMetrics) String() string {
	return fmt.Sprintf("blackhole=%.2fms share=%.3f converge=%.2fms nhg=%d churn=%d session-downs=%d alerts=%d",
		float64(m.BlackholeNs)/1e6, m.PeakShare, float64(m.ConvergeNs)/1e6,
		m.PeakNHG, m.Churn, m.SessionDowns, m.Alerts)
}

// forceResample, when set, makes every probe re-propagate the workload
// on every sample instead of only after a forwarding-relevant change.
// Tests set it to check that skipping unchanged samples changes nothing.
var forceResample bool

// probe instruments one wave attempt's fork. It is itself the fabric's
// telemetry tap: each event runs straight through the pathology
// detectors and folds into the metrics, with nothing buffered. It
// samples the workload on every engine event, exactly as the planner's
// evaluation probe does — the guard judges a live wave by the same
// metrics the planner scored it by. Attaching an event hook forces the
// engine into serial stepping, so measurement is deterministic at any
// worker width.
type probe struct {
	c         *Campaign
	net       *fabric.Network
	pr        *traffic.Propagator
	detectors []telemetry.Detector
	m         WaveMetrics
	startNow  int64
	lastNow   int64
	lastBlack bool
	samples   int64
	downSeen  map[string]bool
	alertSeen map[string]bool
	// res is the last propagation; dirty says forwarding state may have
	// changed since, so the next sample must propagate again.
	res   *traffic.Result
	dirty bool
}

func newProbe(n *fabric.Network, c *Campaign) *probe {
	pb := &probe{
		c: c, net: n,
		pr:        &traffic.Propagator{Net: n},
		detectors: telemetry.StandardDetectors(),
		downSeen:  make(map[string]bool),
		alertSeen: make(map[string]bool),
		dirty:     true,
	}
	n.SetTap(pb)
	pb.startNow = n.Now()
	pb.lastNow = pb.startNow
	n.OnEvent(func(now int64) { pb.observe(now) })
	return pb
}

// Emit folds one tap event into the wave's metrics and runs it through
// the detectors (telemetry.Tap).
func (pb *probe) Emit(ev telemetry.Event) {
	if ev.Kind.ChangesRouting() {
		pb.dirty = true
	}
	switch ev.Kind {
	case telemetry.KindFIBWrite:
		if ev.NHGroups > pb.m.PeakNHG {
			pb.m.PeakNHG = ev.NHGroups
			pb.m.NHGDevice = ev.Device
		}
	case telemetry.KindAdjRIBIn, telemetry.KindBestPath:
		pb.m.Churn++
	case telemetry.KindSessionDown:
		pb.m.SessionDowns++
		if !pb.downSeen[ev.Device] {
			pb.downSeen[ev.Device] = true
			pb.m.DownDevices = append(pb.m.DownDevices, ev.Device)
		}
	}
	for _, d := range pb.detectors {
		if a, ok := d.Observe(ev); ok {
			pb.alert(a)
		}
	}
}

// alert folds one fired detector alert into the wave's evidence.
func (pb *probe) alert(a telemetry.Alert) {
	pb.m.Alerts++
	if len(pb.m.AlertTags) < alertTagCap {
		pb.m.AlertTags = append(pb.m.AlertTags, a.Detector+":"+a.Device)
	}
	if !pb.alertSeen[a.Device] {
		pb.alertSeen[a.Device] = true
		pb.m.AlertDevices = append(pb.m.AlertDevices, a.Device)
	}
}

// observe is the per-event sampler, thinned by SampleEvery.
func (pb *probe) observe(now int64) {
	pb.samples++
	if pb.samples%int64(pb.c.SampleEvery) != 0 {
		return
	}
	pb.sampleAt(now)
}

// sampleAt measures the workload at one instant: integrate the black-hole
// window since the previous sample under its verdict, then re-sample.
// Propagation re-runs only when an event that changes routing arrived
// since the last one; otherwise the previous result still holds.
func (pb *probe) sampleAt(now int64) {
	if pb.lastBlack && now > pb.lastNow {
		pb.m.BlackholeNs += now - pb.lastNow
	}
	if pb.dirty {
		pb.res = pb.pr.Run(pb.c.Demands)
		pb.dirty = forceResample
	}
	dev, share := pb.res.MaxDeviceShare(pb.c.Watch)
	if share > pb.m.PeakShare {
		pb.m.PeakShare = share
		pb.m.ShareDevice = string(dev)
	}
	bh := pb.res.BlackholedFraction()
	pb.lastBlack = bh > pb.c.BlackholeEps
	pb.lastNow = now
	pb.Emit(telemetry.Event{
		Kind:       telemetry.KindTrafficSample,
		Time:       now,
		Device:     string(dev),
		Share:      share,
		FairShare:  pb.c.FairShare,
		Blackholed: bh,
	})
}

// finish closes the measurement window: the settled end state is always
// sampled, so even a no-op wave answers for the state it leaves behind.
func (pb *probe) finish(events int64) WaveMetrics {
	now := pb.net.Now()
	pb.sampleAt(now)
	pb.m.ConvergeNs = now - pb.startNow
	pb.m.Events = events
	return pb.m
}
