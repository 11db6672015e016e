package perf

// The general-purpose front end of the MDM: the four Sun Enterprise 4500
// node computers, the Myrinet network between them, and the PCI /
// CompactPCI links to the WINE-2 and MDGRAPE-2 boards (§3.2–3.3 and Table 1
// of the paper). This file holds the component inventory of Table 1 and the
// bandwidth/latency cost model that MachineModel.StepTime charges for
// communication and host work, to reproduce the paper's timing discussion
// (§6.1): the current machine is communication-bound on 32-bit PCI, and the
// planned upgrades double the PCI bandwidth and triple the Myrinet bandwidth.

import "fmt"

// Component is one row of Table 1.
type Component struct {
	Component    string
	Product      string
	Manufacturer string
}

// Inventory returns the MDM component list of Table 1.
func Inventory() []Component {
	return []Component{
		{"Node computer", "Enterprise 4500", "Sun Microsystems"},
		{"CPU", "Ultra SPARC-II 400 MHz", "Sun Microsystems"},
		{"Network", "Myrinet", "Myricom"},
		{"Switch", "16-port LAN switch", "Myricom"},
		{"Network card", "LAN PCI card (LANai 4.3)", "Myricom"},
		{"Link", "Bus bridge", "SBS Technologies"},
		{"Interface", "PCI host card/(Compact)PCI backplane controller card", "SBS Technologies"},
		{"Bus", "CompactPCI (WINE-2) / PCI (MDGRAPE-2), PCI local bus spec. rev. 2.1", "-"},
	}
}

// HostModel is the host-side cost model: node count, per-node compute rate and
// the two communication channels (board links and inter-node network).
type HostModel struct {
	Nodes       int     // node computers
	CPUsPerNode int     // processors per node
	CPUFlops    float64 // sustained flop/s per processor for host-side work

	PCIBandwidth float64 // bytes/s of one PCI/CompactPCI bridge link
	PCILatency   float64 // seconds per transfer setup
	NetBandwidth float64 // bytes/s of one Myrinet link
	NetLatency   float64 // seconds per message

	WineLinksPerNode int // WINE-2 cluster bridges per node (5)
	MDGLinksPerNode  int // MDGRAPE-2 cluster bridges per node (4)
}

// CurrentHost is the front end as measured in July 2000: 32-bit/33 MHz PCI
// (~133 MB/s theoretical, ~100 MB/s sustained) and first-generation Myrinet
// cards (~100 MB/s sustained).
func CurrentHost() HostModel {
	return HostModel{
		Nodes:            4,
		CPUsPerNode:      6,
		CPUFlops:         100e6, // sustained on a 400 MHz UltraSPARC-II
		PCIBandwidth:     100e6,
		PCILatency:       20e-6,
		NetBandwidth:     100e6,
		NetLatency:       20e-6,
		WineLinksPerNode: 5,
		MDGLinksPerNode:  4,
	}
}

// FutureHost applies the §6.1 upgrades: 64-bit PCI (bandwidth ×2) and new
// Myrinet cards (bandwidth ×3).
func FutureHost() HostModel {
	m := CurrentHost()
	m.PCIBandwidth *= 2
	m.NetBandwidth *= 3
	return m
}

// Validate reports model errors.
func (m HostModel) Validate() error {
	if m.Nodes < 1 || m.CPUsPerNode < 1 {
		return fmt.Errorf("perf: non-positive host node configuration")
	}
	if m.CPUFlops <= 0 || m.PCIBandwidth <= 0 || m.NetBandwidth <= 0 {
		return fmt.Errorf("perf: non-positive host rates")
	}
	if m.PCILatency < 0 || m.NetLatency < 0 {
		return fmt.Errorf("perf: negative host latencies")
	}
	if m.WineLinksPerNode < 0 || m.MDGLinksPerNode < 0 {
		return fmt.Errorf("perf: negative host link counts")
	}
	return nil
}

// PCITime returns the time to move the given bytes over one bridge link.
func (m HostModel) PCITime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return m.PCILatency + float64(bytes)/m.PCIBandwidth
}

// NetTime returns the time to move the given bytes over one Myrinet link.
func (m HostModel) NetTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return m.NetLatency + float64(bytes)/m.NetBandwidth
}

// HostTime returns the time for the host to execute the given flops, spread
// over all processors.
func (m HostModel) HostTime(flops float64) float64 {
	if flops <= 0 {
		return 0
	}
	return flops / (float64(m.Nodes*m.CPUsPerNode) * m.CPUFlops)
}

// WineLinks returns the total number of host↔WINE-2 bridge links.
func (m HostModel) WineLinks() int { return m.Nodes * m.WineLinksPerNode }

// MDGLinks returns the total number of host↔MDGRAPE-2 bridge links.
func (m HostModel) MDGLinks() int { return m.Nodes * m.MDGLinksPerNode }
