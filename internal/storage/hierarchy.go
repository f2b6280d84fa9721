// Package storage provides the two storage-side pieces of the progressive
// retrieval framework: a model of an HPC storage hierarchy (tiers with
// latency and bandwidth, and a placement of coefficient levels onto tiers,
// §II-A) and a segment store with ranged reads of individual (level,
// bit-plane) segments, laid out on disk as one .pmgd file or as a directory
// of per-tier level files — two layouts behind one reader (Store) and one
// writer protocol (WriteSegment, Commit, Abort).
package storage

import "fmt"

// Tier describes one tier of the storage hierarchy.
type Tier struct {
	// Name identifies the tier ("nvme", "hdd", ...).
	Name string
	// Latency is the fixed per-request cost in seconds.
	Latency float64
	// Bandwidth is the sustained read bandwidth in bytes per second.
	Bandwidth float64
}

// Hierarchy is a set of tiers and a placement of coefficient levels onto
// them. Per the paper, the coarsest level (level 0) sits on the fastest
// tier, since it is read by every retrieval, and the finest details sit on
// the slowest.
type Hierarchy struct {
	Tiers []Tier
	// Placement[l] is the index into Tiers holding level l's segments.
	Placement []int
}

// DefaultTiers returns a four-tier model loosely calibrated to a
// leadership-class machine: node-local NVMe, burst buffer SSD, parallel
// file system disk, and archival tape.
func DefaultTiers() []Tier {
	return []Tier{
		{Name: "nvme", Latency: 20e-6, Bandwidth: 5e9},
		{Name: "ssd", Latency: 100e-6, Bandwidth: 1.5e9},
		{Name: "hdd", Latency: 8e-3, Bandwidth: 250e6},
		{Name: "tape", Latency: 30, Bandwidth: 100e6},
	}
}

// DefaultHierarchy places `levels` coefficient levels across the default
// tiers: level 0 on the fastest tier, the finest level on the slowest, and
// intermediate levels spread proportionally.
func DefaultHierarchy(levels int) (Hierarchy, error) {
	if levels < 1 {
		return Hierarchy{}, fmt.Errorf("storage: levels %d < 1", levels)
	}
	tiers := DefaultTiers()
	placement := make([]int, levels)
	if levels == 1 {
		return Hierarchy{Tiers: tiers, Placement: placement}, nil
	}
	for l := 0; l < levels; l++ {
		placement[l] = l * (len(tiers) - 1) / (levels - 1)
	}
	return Hierarchy{Tiers: tiers, Placement: placement}, nil
}

// Validate reports whether the hierarchy is internally consistent.
func (h Hierarchy) Validate() error {
	if len(h.Tiers) == 0 {
		return fmt.Errorf("storage: hierarchy has no tiers")
	}
	for i, t := range h.Tiers {
		if t.Bandwidth <= 0 {
			return fmt.Errorf("storage: tier %d (%s) has non-positive bandwidth", i, t.Name)
		}
		if t.Latency < 0 {
			return fmt.Errorf("storage: tier %d (%s) has negative latency", i, t.Name)
		}
	}
	for l, p := range h.Placement {
		if p < 0 || p >= len(h.Tiers) {
			return fmt.Errorf("storage: level %d placed on tier %d, have %d tiers", l, p, len(h.Tiers))
		}
	}
	return nil
}

// ReadTime models the time to read the given number of bytes from level l's
// tier in `requests` separate requests. requests below 1 is treated as 1
// when bytes > 0, and 0 requests with 0 bytes costs nothing.
func (h Hierarchy) ReadTime(level int, bytes int64, requests int) (float64, error) {
	if level < 0 || level >= len(h.Placement) {
		return 0, fmt.Errorf("storage: level %d outside placement of %d levels", level, len(h.Placement))
	}
	if bytes == 0 && requests <= 0 {
		return 0, nil
	}
	if requests < 1 {
		requests = 1
	}
	t := h.Tiers[h.Placement[level]]
	return float64(requests)*t.Latency + float64(bytes)/t.Bandwidth, nil
}

// PlanTime models the total time of a retrieval plan: bytesPerLevel[l] bytes
// read from level l in requestsPerLevel[l] requests. Levels on the same tier
// are read sequentially (single I/O path), so times add.
func (h Hierarchy) PlanTime(bytesPerLevel []int64, requestsPerLevel []int) (float64, error) {
	if len(bytesPerLevel) != len(requestsPerLevel) {
		return 0, fmt.Errorf("storage: plan arrays disagree: %d levels vs %d", len(bytesPerLevel), len(requestsPerLevel))
	}
	total := 0.0
	for l := range bytesPerLevel {
		t, err := h.ReadTime(l, bytesPerLevel[l], requestsPerLevel[l])
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}
