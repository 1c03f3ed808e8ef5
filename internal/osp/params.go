// Package osp synthesizes an online service provider's management-plane
// data: inventory records, a configuration-snapshot archive with login
// metadata, and a trouble-ticket log.
//
// The paper's datasets (850+ networks, 17 months, O(100K) config
// snapshots, O(10K) tickets — Table 2) are proprietary; this generator is
// the repository's documented substitution (DESIGN.md §2). It draws
// network compositions and operational behaviour from the long-tailed
// distributions the paper characterizes in Appendix A, renders every
// device's configuration to real vendor text through the dialect packages,
// and emits tickets from a ground-truth health model whose causal
// structure mirrors the paper's findings — so the analytics pipeline faces
// the same skew, confounding, and vendor quirks the authors describe, and
// its causal conclusions can be checked against a known truth.
package osp

import (
	"time"

	"mpa/internal/months"
)

// Params configures a synthetic OSP.
type Params struct {
	// Seed drives every random draw; the same seed reproduces the entire
	// OSP byte-for-byte.
	Seed uint64
	// Networks is the number of networks to generate (paper: 850+).
	Networks int
	// Start and End bound the study window, inclusive (paper: Aug 2013 -
	// Dec 2014).
	Start, End months.Month
}

// Default returns the paper-scale parameters: 850 networks over the
// 17-month study window.
func Default(seed uint64) Params {
	return Params{
		Seed:     seed,
		Networks: 850,
		Start:    months.StudyStart,
		End:      months.StudyEnd,
	}
}

// Small returns reduced-scale parameters for unit tests and examples:
// enough networks and months for every metric and model to be exercised,
// at a fraction of the cost.
func Small(seed uint64) Params {
	return Params{
		Seed:     seed,
		Networks: 60,
		Start:    months.Month{Year: 2014, Mon: time.January},
		End:      months.Month{Year: 2014, Mon: time.June},
	}
}

// Months returns the study window.
func (p Params) Months() []months.Month { return months.Range(p.Start, p.End) }

// Automation account logins: changes by these logins are classified as
// automated by the NMS (paper §2.2, O2).
var specialAccounts = []string{"svc-netauto", "rancid-bot", "svc-lbsync"}

// operatorPool is the set of human operator logins.
var operatorPool = []string{
	"op-chen", "op-patel", "op-garcia", "op-kim", "op-nguyen",
	"op-smith", "op-tanaka", "op-mueller", "op-okafor", "op-rossi",
}
