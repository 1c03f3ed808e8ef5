// Package routing summarizes the routing instances of a network's device
// configurations (paper §2.2, D5, following Benson et al.'s configuration
// models): a
// routing instance is a collection of routing processes of the same type
// on different devices that are in the transitive closure of the
// "adjacent-to" relationship. A network's routing instances collectively
// implement its control plane.
//
// Adjacency rules per protocol:
//
//   - BGP: device A is adjacent to device B when A has a neighbor
//     statement whose address is B's management IP (or vice versa);
//   - OSPF: devices are adjacent when their OSPF processes share an area;
//   - MSTP: devices are adjacent when their spanning-tree configuration
//     names the same MST region.
package routing

import (
	"strings"

	"mpa/internal/confmodel"
)

// Protocol identifies a routing (or spanning-tree) protocol whose
// instances are summarized.
type Protocol int

// Extractable protocols.
const (
	BGP Protocol = iota
	OSPF
	MSTP
)

// unionFind is a simple disjoint-set structure over device indexes.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// Process is what adjacency reads of one device's process of a protocol:
// the device's hostname, the hostnames its BGP neighbor statements
// resolve to (its own included when a statement names it), and its OSPF
// areas or MST regions. A device without a process of the protocol has
// no Process.
type Process struct {
	Host  string
	Peers []string
	Keys  []string // shared key => adjacent
}

// processes returns the processes of the given protocol across the
// configurations of one network's devices, in config order.
func processes(configs []*confmodel.Config, mgmtIPOwner map[string]string, proto Protocol) []Process {
	var procs []Process
	for _, c := range configs {
		p := Process{Host: c.Hostname}
		switch proto {
		case BGP:
			bgp := c.OfType(confmodel.TypeBGP)
			if len(bgp) == 0 {
				continue
			}
			p.Peers = BGPPeers(bgp, mgmtIPOwner)
		case OSPF:
			p.Keys = OSPFKeys(c.OfType(confmodel.TypeOSPF))
		case MSTP:
			for _, s := range c.OfType(confmodel.TypeSTP) {
				mode := s.Get("mode")
				if mode != "mst" && mode != "mstp" {
					continue
				}
				if region := s.Get("region"); region != "" {
					p.Keys = append(p.Keys, region)
				}
			}
		}
		if proto != BGP && len(p.Keys) == 0 {
			continue
		}
		procs = append(procs, p)
	}
	return procs
}

// BGPPeers returns the hostnames that the neighbor statements of a
// device's BGP stanzas resolve to through mgmtIPOwner, one per statement
// that resolves.
func BGPPeers(stanzas []*confmodel.Stanza, mgmtIPOwner map[string]string) []string {
	var peers []string
	for _, s := range stanzas {
		for k := range s.Options {
			if ip, ok := strings.CutPrefix(k, "neighbor:"); ok {
				if owner, ok := mgmtIPOwner[ip]; ok {
					peers = append(peers, owner)
				}
			}
		}
	}
	return peers
}

// OSPFKeys returns the areas a device's OSPF stanzas place it in: each
// stanza's area option and the area of each of its network statements.
func OSPFKeys(stanzas []*confmodel.Stanza) []string {
	var keys []string
	for _, s := range stanzas {
		if area := s.Get("area"); area != "" {
			keys = append(keys, area)
		}
		for k, area := range s.Options {
			if strings.HasPrefix(k, "network:") {
				keys = append(keys, area)
			}
		}
	}
	return keys
}

// join returns the union-find over procs in which two processes share a
// set exactly when they are in one instance: a process is adjacent to
// the processes of the hostnames it peers with (the last process with a
// hostname stands for it) and to every process sharing one of its keys.
func join(procs []Process) *unionFind {
	uf := newUnionFind(len(procs))
	var hostIdx map[string]int
	firstWith := map[string]int{}
	for i, p := range procs {
		if len(p.Peers) > 0 && hostIdx == nil {
			hostIdx = make(map[string]int, len(procs))
			for j, q := range procs {
				hostIdx[q.Host] = j
			}
		}
		for _, peer := range p.Peers {
			if j, ok := hostIdx[peer]; ok {
				uf.union(i, j)
			}
		}
		for _, k := range p.Keys {
			if j, ok := firstWith[k]; ok {
				uf.union(j, i)
			} else {
				firstWith[k] = i
			}
		}
	}
	return uf
}

// Summary holds the D5 metrics for one protocol in one network.
type Summary struct {
	Count   int
	AvgSize float64
}

// Summarize returns instance count and average size for the protocol.
func Summarize(configs []*confmodel.Config, mgmtIPOwner map[string]string, proto Protocol) Summary {
	return SummarizeProcesses(processes(configs, mgmtIPOwner, proto))
}

// SummarizeProcesses returns the instance count and average size of one
// protocol's processes, as Summarize does for configs, without listing
// each instance's devices.
func SummarizeProcesses(procs []Process) Summary {
	if len(procs) == 0 {
		return Summary{}
	}
	uf := join(procs)
	count := 0
	for i := range procs {
		if uf.find(i) == i {
			count++
		}
	}
	return Summary{Count: count, AvgSize: float64(len(procs)) / float64(count)}
}
