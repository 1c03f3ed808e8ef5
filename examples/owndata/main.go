// Own-data workflow: how an organization runs MPA on its own records.
// This example exports a synthetic organization to the open on-disk
// layout (inventory.json, tickets.csv, a RANCID-style snapshots/ tree),
// then loads it back the way a real deployment would load its archives,
// and analyzes the loaded data.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mpa"
)

func main() {
	dir, err := os.MkdirTemp("", "mpa-owndata-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Stand-in for a real organization: generate and export one.
	cfg := mpa.SmallConfig(7)
	cfg.Networks = 30
	src, err := mpa.NewSynthetic(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := src.Save(dir); err != nil {
		log.Fatal(err)
	}
	// The directory's name differs on every run; the listing does not.
	fmt.Println("exported organization to a temporary directory:")
	for _, name := range []string{"inventory.json", "tickets.csv", "snapshots"} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s %v\n", name, info.Mode())
	}

	// A real deployment starts here: point MPA at the directory.
	window := src.Window()
	f, err := mpa.LoadOrganization(dir, mpa.DefaultAutomationAccounts,
		window[0], window[len(window)-1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nloaded:", f.Dataset())

	fmt.Println("\nTop practices by dependence with health:")
	for i, e := range f.RankPractices()[:3] {
		fmt.Printf("  %d. %-30s MI=%.3f\n", i+1, mpa.DisplayName(e.Metric), e.MI)
	}

	// Per-network report card for the busiest network.
	var worst string
	worstTickets := -1
	for _, name := range f.Dataset().Networks() {
		total := 0
		for _, c := range f.Dataset().Cases {
			if c.Network == name {
				total += c.Tickets
			}
		}
		if total > worstTickets {
			worst, worstTickets = name, total
		}
	}
	card, err := f.NetworkReport(worst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreport card for the unhealthiest network (%d tickets total):\n\n%s", worstTickets, card)
}
