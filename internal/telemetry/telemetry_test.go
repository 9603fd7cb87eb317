package telemetry

import (
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"centralium/internal/telemetry/bmpwire"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestCodecRoundTrip(t *testing.T) {
	cases := []Event{
		{Kind: KindSessionUp, Time: 100000, Device: "fsw1", Session: "fsw1~fadu3", Peer: "fadu3", PeerASN: 65003},
		{Kind: KindSessionDown, Time: 200000, Device: "fsw1", Session: "fsw1~fadu3", Peer: "fadu3", PeerASN: 65003},
		{Kind: KindAdjRIBIn, Time: 300000, Device: "fsw1", Peer: "fadu3", PeerASN: 65003,
			Prefix: pfx("10.0.3.0/24"), ASPath: []uint32{65003, 65100}, MED: 50, LinkBandwidthGbps: 40},
		{Kind: KindAdjRIBIn, Time: 310000, Device: "fsw1", Peer: "fadu3", PeerASN: 65003,
			Prefix: pfx("10.0.3.0/24"), Withdraw: true},
		{Kind: KindAdjRIBIn, Time: 320000, Device: "fsw1", Peer: "fadu3", PeerASN: 65003,
			Prefix: pfx("2001:db8:3::/48"), ASPath: []uint32{65003}},
		{Kind: KindBestPath, Time: 400000, Device: "fsw1", Prefix: pfx("10.0.3.0/24")},
		{Kind: KindBestPath, Time: 410000, Device: "fsw1", Prefix: pfx("2001:db8:3::/48"), Withdraw: true},
		{Kind: KindFIBWrite, Time: 500000, Device: "fsw1", Prefix: pfx("10.0.3.0/24"),
			FIBEntries: 12, NHGroups: 7, NHGLimit: 8, NHGChurn: 3, Overflows: 1},
		{Kind: KindFIBWrite, Time: 510000, Device: "fsw1", Prefix: pfx("10.0.3.0/24"), Warm: true, Withdraw: true},
		{Kind: KindRPAHit, Time: 600000, Device: "fsw1", Prefix: pfx("10.0.3.0/24"), Statement: "min-next-hop-75"},
		{Kind: KindTrafficSample, Time: 700000, Device: "fadu9", Share: 0.25, FairShare: 0.0625, Blackholed: 0.125},
	}
	for _, want := range cases {
		m, err := EncodeEvent(want)
		if err != nil {
			t.Fatalf("encode %v: %v", want.Kind, err)
		}
		raw, err := bmpwire.Marshal(m)
		if err != nil {
			t.Fatalf("marshal %v: %v", want.Kind, err)
		}
		back, err := bmpwire.Unmarshal(raw)
		if err != nil {
			t.Fatalf("unmarshal %v: %v", want.Kind, err)
		}
		got, ok := DecodeMessage(want.Device, back)
		if !ok {
			t.Fatalf("decode %v: no event", want.Kind)
		}
		// Stats reports carry no peer identity for traffic samples; the
		// device binding restores Device. Session name round-trips via TLV.
		if got.Kind != want.Kind {
			t.Fatalf("kind: got %v want %v", got.Kind, want.Kind)
		}
		if got.Time != want.Time || got.Device != want.Device {
			t.Fatalf("%v identity: got %q@%d want %q@%d", want.Kind, got.Device, got.Time, want.Device, want.Time)
		}
		if got.Prefix != want.Prefix || got.Withdraw != want.Withdraw {
			t.Fatalf("%v route: got %v/%v want %v/%v", want.Kind, got.Prefix, got.Withdraw, want.Prefix, want.Withdraw)
		}
		if !reflect.DeepEqual(got.ASPath, want.ASPath) || got.MED != want.MED {
			t.Fatalf("%v attrs: got %v med=%d want %v med=%d", want.Kind, got.ASPath, got.MED, want.ASPath, want.MED)
		}
		if got.LinkBandwidthGbps < want.LinkBandwidthGbps-0.001 || got.LinkBandwidthGbps > want.LinkBandwidthGbps+0.001 {
			t.Fatalf("%v lbw: got %v want %v", want.Kind, got.LinkBandwidthGbps, want.LinkBandwidthGbps)
		}
		if got.Session != want.Session {
			t.Fatalf("%v session: got %q want %q", want.Kind, got.Session, want.Session)
		}
		if got.NHGroups != want.NHGroups || got.NHGLimit != want.NHGLimit ||
			got.NHGChurn != want.NHGChurn || got.Overflows != want.Overflows ||
			got.FIBEntries != want.FIBEntries || got.Warm != want.Warm {
			t.Fatalf("%v fib: got %+v want %+v", want.Kind, got, want)
		}
		if got.Statement != want.Statement {
			t.Fatalf("%v statement: got %q want %q", want.Kind, got.Statement, want.Statement)
		}
		const eps = 1e-6
		if diff := got.Share - want.Share; diff > eps || diff < -eps {
			t.Fatalf("%v share: got %v want %v", want.Kind, got.Share, want.Share)
		}
		if diff := got.FairShare - want.FairShare; diff > eps || diff < -eps {
			t.Fatalf("%v fair: got %v want %v", want.Kind, got.FairShare, want.FairShare)
		}
		if diff := got.Blackholed - want.Blackholed; diff > eps || diff < -eps {
			t.Fatalf("%v blackholed: got %v want %v", want.Kind, got.Blackholed, want.Blackholed)
		}
	}
}

func TestRing(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Push(Event{Time: int64(i)})
	}
	if r.Len() != 4 || r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
	snap := r.Snapshot()
	for i, ev := range snap {
		if ev.Time != int64(6+i) {
			t.Fatalf("snapshot[%d].Time = %d, want %d", i, ev.Time, 6+i)
		}
	}
}

// TestRingGrowsWithinCapacity: storage grows on demand, the ring never
// holds more than its capacity (append may leave at most as much slack
// again), and eviction order is the same at every fill level, including
// capacities the growth steps do not land on exactly.
func TestRingGrowsWithinCapacity(t *testing.T) {
	for _, capacity := range []int{1, 7, 8, 100} {
		r := NewRing(capacity)
		if cap(r.buf) != 0 {
			t.Fatalf("cap %d: ring allocated %d slots before any push", capacity, cap(r.buf))
		}
		for i := 0; i < 3*capacity+5; i++ {
			r.Push(Event{Time: int64(i)})
			if r.Len() > capacity || cap(r.buf) > 2*capacity {
				t.Fatalf("cap %d: after %d pushes len=%d backing=%d", capacity, i+1, r.Len(), cap(r.buf))
			}
			want := min(i+1, capacity)
			snap := r.Snapshot()
			if len(snap) != want || snap[0].Time != int64(i+1-want) || snap[want-1].Time != int64(i) {
				t.Fatalf("cap %d: after %d pushes snapshot spans %d..%d (len %d)",
					capacity, i+1, snap[0].Time, snap[len(snap)-1].Time, len(snap))
			}
		}
		if r.Total() != uint64(3*capacity+5) || r.Dropped() != uint64(2*capacity+5) {
			t.Fatalf("cap %d: total=%d dropped=%d", capacity, r.Total(), r.Dropped())
		}
	}
}

// TestCollectorManyDevicesStaysSmall: a collector that sees one event
// from each of 1,000 devices pays for 1,000 events, not for 1,000
// default-capacity rings (about 1 GB).
func TestCollectorManyDevicesStaysSmall(t *testing.T) {
	devices := make([]string, 1000)
	for i := range devices {
		devices[i] = fmt.Sprintf("dev%04d", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCollector(CollectorOptions{})
	for _, d := range devices {
		c.Emit(Event{Kind: KindBestPath, Device: d})
	}
	runtime.ReadMemStats(&after)
	if got := c.EventCount(); got != uint64(len(devices)) {
		t.Fatalf("ingested %d events, want %d", got, len(devices))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("1,000 single-event devices allocated %d bytes, want < 1 MB", alloc)
	}
}

func TestFunnelingDetector(t *testing.T) {
	d := NewFunnelingDetector(2)
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "a", Share: 0.10, FairShare: 0.0625}); ok {
		t.Fatal("fired below threshold")
	}
	a, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "a", Share: 0.20, FairShare: 0.0625})
	if !ok || a.Device != "a" {
		t.Fatalf("did not fire above threshold: %v %v", a, ok)
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "a", Share: 0.5, FairShare: 0.0625}); ok {
		t.Fatal("re-fired for same device")
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "b", Share: 0.5, FairShare: 0.0625}); !ok {
		t.Fatal("did not fire for second device")
	}
}

func TestNHGPressureDetector(t *testing.T) {
	d := NewNHGPressureDetector(0.9)
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", NHGroups: 7, NHGLimit: 16}); ok {
		t.Fatal("fired at low occupancy")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", NHGroups: 15, NHGLimit: 16}); !ok {
		t.Fatal("did not fire at high water")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "b", NHGroups: 1, NHGLimit: 16, Overflows: 2}); !ok {
		t.Fatal("did not fire on overflow")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "c", NHGroups: 100}); ok {
		t.Fatal("fired with no hardware limit")
	}
}

func TestChurnDetector(t *testing.T) {
	d := NewChurnDetector(1000, 3)
	for i := 0; i < 3; i++ {
		if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: int64(i)}); ok {
			t.Fatalf("fired at event %d", i)
		}
	}
	if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: 3}); !ok {
		t.Fatal("did not fire past limit")
	}
	if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: 4}); ok {
		t.Fatal("re-fired while hot")
	}
	// Far in the future the window empties and the detector re-arms.
	if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: 1e6}); ok {
		t.Fatal("fired after quiet period")
	}
}

func TestBlackholeDetector(t *testing.T) {
	d := NewBlackholeDetector(0.01)
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", Prefix: pfx("10.0.0.0/24")}); ok {
		t.Fatal("fired on cold write")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", Prefix: pfx("10.0.0.0/24"), Warm: true}); !ok {
		t.Fatal("did not fire on warm write")
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "b", Blackholed: 0.2}); !ok {
		t.Fatal("did not fire on loss sample")
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "b", Blackholed: 0.005}); ok {
		t.Fatal("fired below loss threshold")
	}
}

func TestCollectorInProcess(t *testing.T) {
	var alerts []Alert
	c := NewCollector(CollectorOptions{
		RingSize: 8,
		OnAlert:  func(a Alert) { alerts = append(alerts, a) },
	})
	c.Emit(Event{Kind: KindTrafficSample, Device: "fadu1", Time: 1, Share: 0.5, FairShare: 0.0625})
	c.Emit(Event{Kind: KindAdjRIBIn, Device: "fsw1", Time: 2, Prefix: pfx("10.0.0.0/24")})

	if got := c.EventCount(); got != 2 {
		t.Fatalf("EventCount = %d", got)
	}
	if devs := c.Devices(); !reflect.DeepEqual(devs, []string{"fadu1", "fsw1"}) {
		t.Fatalf("Devices = %v", devs)
	}
	if evs := c.Events("fsw1"); len(evs) != 1 || evs[0].Prefix != pfx("10.0.0.0/24") {
		t.Fatalf("Events(fsw1) = %v", evs)
	}
	got := c.AlertsBy("funneling")
	if len(got) != 1 || got[0].Device != "fadu1" {
		t.Fatalf("funneling alerts = %v", got)
	}
	if len(alerts) != 1 {
		t.Fatalf("OnAlert saw %d alerts", len(alerts))
	}
}

func TestCollectorOverTCP(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExporter(conn, "fsw7")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		exp.Emit(Event{Kind: KindAdjRIBIn, Device: "fsw7", Time: int64(i),
			Peer: "fadu1", PeerASN: 65001, Prefix: pfx("10.9.0.0/24"), ASPath: []uint32{65001}})
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	waitFor(t, func() bool { return c.RouteMonitoringCount() == n })
	evs := c.Events("fsw7")
	if len(evs) != n {
		t.Fatalf("buffered %d events, want %d", len(evs), n)
	}
	if evs[0].Device != "fsw7" || evs[0].Peer != "fadu1" {
		t.Fatalf("bad identity on decoded event: %+v", evs[0])
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}
