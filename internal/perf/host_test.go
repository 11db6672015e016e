package perf

import (
	"math"
	"strings"
	"testing"
)

func TestInventoryMatchesTable1(t *testing.T) {
	inv := Inventory()
	if len(inv) != 8 {
		t.Fatalf("inventory rows = %d, Table 1 has 8", len(inv))
	}
	wantProducts := map[string]string{
		"Node computer": "Enterprise 4500",
		"CPU":           "Ultra SPARC-II 400 MHz",
		"Network":       "Myrinet",
		"Switch":        "16-port LAN switch",
	}
	got := map[string]string{}
	for _, c := range inv {
		got[c.Component] = c.Product
	}
	for comp, prod := range wantProducts {
		if got[comp] != prod {
			t.Errorf("%s = %q, want %q", comp, got[comp], prod)
		}
	}
	// The bus row must mention both bus standards.
	var bus string
	for _, c := range inv {
		if c.Component == "Bus" {
			bus = c.Product
		}
	}
	if !strings.Contains(bus, "CompactPCI") || !strings.Contains(bus, "PCI") {
		t.Errorf("bus row = %q", bus)
	}
}

func TestCurrentModel(t *testing.T) {
	m := CurrentHost()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 4 || m.CPUsPerNode != 6 {
		t.Errorf("nodes = %d × %d, paper: 4 × 6", m.Nodes, m.CPUsPerNode)
	}
	if m.WineLinks() != 20 {
		t.Errorf("WINE-2 links = %d, paper: 20 clusters", m.WineLinks())
	}
	if m.MDGLinks() != 16 {
		t.Errorf("MDGRAPE-2 links = %d, paper: 16 clusters", m.MDGLinks())
	}
}

func TestFutureUpgrades(t *testing.T) {
	cur, fut := CurrentHost(), FutureHost()
	if fut.PCIBandwidth != 2*cur.PCIBandwidth {
		t.Errorf("PCI upgrade ×%g, §6.1 says ×2", fut.PCIBandwidth/cur.PCIBandwidth)
	}
	if fut.NetBandwidth != 3*cur.NetBandwidth {
		t.Errorf("Myrinet upgrade ×%g, §6.1 says ×3", fut.NetBandwidth/cur.NetBandwidth)
	}
}

func TestTransferTimes(t *testing.T) {
	m := CurrentHost()
	// 100 MB over a 100 MB/s PCI link ≈ 1 s.
	if dt := m.PCITime(100e6); math.Abs(dt-1) > 0.01 {
		t.Errorf("PCITime(100MB) = %g", dt)
	}
	if m.PCITime(0) != 0 || m.NetTime(-5) != 0 {
		t.Error("zero/negative bytes should cost nothing")
	}
	// Latency dominates tiny messages.
	if dt := m.NetTime(1); dt < m.NetLatency {
		t.Errorf("NetTime(1) = %g < latency", dt)
	}
}

func TestHostTime(t *testing.T) {
	m := CurrentHost()
	// 24 CPUs × 100 Mflops = 2.4 Gflop/s.
	if dt := m.HostTime(2.4e9); math.Abs(dt-1) > 1e-9 {
		t.Errorf("HostTime(2.4e9) = %g, want 1", dt)
	}
	if m.HostTime(0) != 0 {
		t.Error("zero flops should cost nothing")
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	for _, mod := range []func(*HostModel){
		func(m *HostModel) { m.Nodes = 0 },
		func(m *HostModel) { m.CPUFlops = 0 },
		func(m *HostModel) { m.PCILatency = -1 },
		func(m *HostModel) { m.WineLinksPerNode = -1 },
	} {
		m := CurrentHost()
		mod(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("invalid model accepted: %+v", m)
		}
	}
}
