package routing

import (
	"sort"
	"testing"

	"mpa/internal/confmodel"
)

// Instance is one routing instance: the hostnames, sorted, whose
// processes form a connected component under the adjacency relationship.
type Instance struct {
	Devices []string
}

// Extract is the test oracle of instance membership: it lists the
// routing instances of the given protocol across one network's
// configurations, by the processes and join that Summarize counts.
// mgmtIPOwner maps management IPs to hostnames (needed for BGP
// adjacency); it may be nil for OSPF/MSTP.
func Extract(configs []*confmodel.Config, mgmtIPOwner map[string]string, proto Protocol) []Instance {
	procs := processes(configs, mgmtIPOwner, proto)
	if len(procs) == 0 {
		return nil
	}
	uf := join(procs)
	byRoot := map[int][]string{}
	for i, p := range procs {
		root := uf.find(i)
		byRoot[root] = append(byRoot[root], p.Host)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([]Instance, 0, len(roots))
	for _, r := range roots {
		devs := byRoot[r]
		sort.Strings(devs)
		out = append(out, Instance{Devices: devs})
	}
	// Deterministic order by first device name.
	sort.Slice(out, func(i, j int) bool { return out[i].Devices[0] < out[j].Devices[0] })
	return out
}

func bgpDev(host, ip string, neighbors ...string) *confmodel.Config {
	c := confmodel.NewConfig(host)
	s := confmodel.NewStanza(confmodel.TypeBGP, "65000")
	s.Set("local-as", "65000")
	for _, n := range neighbors {
		s.Set("neighbor:"+n, "65000")
	}
	c.Upsert(s)
	return c
}

func ospfDev(host, area string) *confmodel.Config {
	c := confmodel.NewConfig(host)
	c.Upsert(confmodel.NewStanza(confmodel.TypeOSPF, "1").Set("area", area))
	return c
}

func mstpDev(host, mode, region string) *confmodel.Config {
	c := confmodel.NewConfig(host)
	c.Upsert(confmodel.NewStanza(confmodel.TypeSTP, "global").
		Set("mode", mode).Set("region", region))
	return c
}

func TestBGPInstanceViaNeighbors(t *testing.T) {
	// a <-> b peered; c speaks BGP but peers with nobody known.
	owner := map[string]string{"10.0.0.1": "a", "10.0.0.2": "b", "10.0.0.3": "c"}
	configs := []*confmodel.Config{
		bgpDev("a", "10.0.0.1", "10.0.0.2"),
		bgpDev("b", "10.0.0.2", "10.0.0.1"),
		bgpDev("c", "10.0.0.3", "192.168.1.1"), // external neighbor
	}
	instances := Extract(configs, owner, BGP)
	if len(instances) != 2 {
		t.Fatalf("instances = %v", instances)
	}
	sizes := map[int]int{}
	for _, in := range instances {
		sizes[len(in.Devices)]++
	}
	if sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("instance sizes = %v", sizes)
	}
}

func TestBGPOneDirectionalNeighborStillJoins(t *testing.T) {
	owner := map[string]string{"10.0.0.1": "a", "10.0.0.2": "b"}
	configs := []*confmodel.Config{
		bgpDev("a", "10.0.0.1", "10.0.0.2"),
		bgpDev("b", "10.0.0.2"), // b does not point back
	}
	instances := Extract(configs, owner, BGP)
	if len(instances) != 1 || len(instances[0].Devices) != 2 {
		t.Errorf("instances = %v", instances)
	}
}

func TestOSPFInstancesByArea(t *testing.T) {
	configs := []*confmodel.Config{
		ospfDev("a", "0"), ospfDev("b", "0"), ospfDev("c", "1"),
		confmodel.NewConfig("d"), // no OSPF at all
	}
	instances := Extract(configs, nil, OSPF)
	if len(instances) != 2 {
		t.Fatalf("instances = %v", instances)
	}
	if len(instances[0].Devices)+len(instances[1].Devices) != 3 {
		t.Errorf("total participants = %d, want 3", len(instances[0].Devices)+len(instances[1].Devices))
	}
}

func TestOSPFAreaFromNetworkStatements(t *testing.T) {
	a := confmodel.NewConfig("a")
	a.Upsert(confmodel.NewStanza(confmodel.TypeOSPF, "1").Set("network:10.0.0.0/16", "7"))
	b := confmodel.NewConfig("b")
	b.Upsert(confmodel.NewStanza(confmodel.TypeOSPF, "1").Set("area", "7"))
	instances := Extract([]*confmodel.Config{a, b}, nil, OSPF)
	if len(instances) != 1 || len(instances[0].Devices) != 2 {
		t.Errorf("network-statement area join failed: %v", instances)
	}
}

func TestMSTPInstancesByRegion(t *testing.T) {
	configs := []*confmodel.Config{
		mstpDev("a", "mst", "R1"), mstpDev("b", "mstp", "R1"),
		mstpDev("c", "mst", "R2"),
		mstpDev("d", "rapid-pvst", "R1"), // not MST mode: excluded
	}
	instances := Extract(configs, nil, MSTP)
	if len(instances) != 2 {
		t.Fatalf("instances = %v", instances)
	}
}

func TestExtractEmpty(t *testing.T) {
	if got := Extract(nil, nil, BGP); got != nil {
		t.Errorf("Extract(nil) = %v", got)
	}
	if got := Extract([]*confmodel.Config{confmodel.NewConfig("x")}, nil, OSPF); got != nil {
		t.Errorf("Extract(no-ospf) = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	configs := []*confmodel.Config{
		ospfDev("a", "0"), ospfDev("b", "0"), ospfDev("c", "1"),
	}
	s := Summarize(configs, nil, OSPF)
	if s.Count != 2 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.AvgSize != 1.5 {
		t.Errorf("AvgSize = %v", s.AvgSize)
	}
	empty := Summarize(nil, nil, BGP)
	if empty.Count != 0 || empty.AvgSize != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestDeterministicOrder(t *testing.T) {
	configs := []*confmodel.Config{
		ospfDev("z", "1"), ospfDev("a", "0"), ospfDev("m", "2"),
	}
	first := Extract(configs, nil, OSPF)
	second := Extract(configs, nil, OSPF)
	for i := range first {
		if first[i].Devices[0] != second[i].Devices[0] {
			t.Fatal("instance order not deterministic")
		}
	}
	if first[0].Devices[0] != "a" {
		t.Errorf("instances not sorted: %v", first)
	}
}
