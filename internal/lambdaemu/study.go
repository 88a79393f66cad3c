package lambdaemu

import (
	"cmp"
	"math/rand"
	"slices"
)

// This file implements the §4.1 black-box reclamation study as a
// deterministic virtual-time loop: deploy N functions, re-invoke
// ("warm up") each one every W minutes, and count how many get reclaimed
// per minute over a 24-hour window. It regenerates Figures 8 and 9
// without spinning up the live platform, while sharing the exact
// ReclaimPolicy implementations the platform's daemon uses.

// StudyConfig parameterises a reclamation study run.
type StudyConfig struct {
	Functions      int           // fleet size (300-400 in the paper)
	WarmupEveryMin int           // re-invoke interval in minutes (1 or 9)
	DurationMin    int           // study length (24h = 1440)
	Policy         ReclaimPolicy // provider behaviour regime
	Seed           int64
}

// StudyResult is the outcome of one study.
type StudyResult struct {
	// PerMinute[i] = number of function-reclaim events during minute i.
	PerMinute []int
	// PerHour[h] = events during hour h (the Figure 8 series).
	PerHour []int
	// TotalReclaims over the run.
	TotalReclaims int
}

// RunStudy executes the study with the paper's observation methodology:
// every function is re-invoked each WarmupEveryMin minutes and "simply
// returns an ID value"; the probe counts a reclaim when a warm-up finds
// the instance ID changed (the function died since the last check). A
// function reclaimed twice between probes therefore counts once, and
// per-spike counts are bounded by the fleet size, exactly as in
// Figure 8. Without warm-ups, deaths are counted when they happen.
// Policy-driven reclaims target the longest-idle alive functions first,
// and a function idle past DefaultMaxIdle is reclaimed unconditionally.
func RunStudy(cfg StudyConfig) StudyResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxIdleMin := int(DefaultMaxIdle.Minutes())

	type fstate struct {
		alive      bool
		lastInvoke int // minute of last invocation
	}
	fleet := make([]fstate, cfg.Functions)
	for i := range fleet {
		fleet[i] = fstate{alive: true, lastInvoke: 0}
	}

	res := StudyResult{
		PerMinute: make([]int, cfg.DurationMin),
		PerHour:   make([]int, (cfg.DurationMin+59)/60),
	}
	record := func(minute int) {
		res.PerMinute[minute-1]++
		res.PerHour[(minute-1)/60]++
		res.TotalReclaims++
	}

	for minute := 1; minute <= cfg.DurationMin; minute++ {
		// Warm-up/probe pass: functions scheduled this minute are
		// invoked; a dead one is observed (counted) and replaced by a
		// fresh instance.
		for i := range fleet {
			if cfg.WarmupEveryMin > 0 && minute%cfg.WarmupEveryMin == i%cfg.WarmupEveryMin {
				if !fleet[i].alive {
					record(minute)
					fleet[i].alive = true
				}
				fleet[i].lastInvoke = minute
			}
		}
		// Provider reclaim pass.
		alive := 0
		for i := range fleet {
			if fleet[i].alive {
				alive++
			}
		}
		n := 0
		if cfg.Policy != nil {
			n = cfg.Policy.Reclaims(minute, alive, rng)
		}
		if n > 0 {
			// Longest-idle first.
			order := make([]int, 0, alive)
			for i := range fleet {
				if fleet[i].alive {
					order = append(order, i)
				}
			}
			slices.SortStableFunc(order, func(a, b int) int {
				return cmp.Compare(fleet[a].lastInvoke, fleet[b].lastInvoke)
			})
			for _, idx := range order[:min(n, len(order))] {
				fleet[idx].alive = false
				if cfg.WarmupEveryMin == 0 {
					record(minute) // unobserved fleets count at death
				}
			}
		}
		// Idle-expiry pass (matters for warm-up intervals > MaxIdle).
		for i := range fleet {
			if fleet[i].alive && minute-fleet[i].lastInvoke > maxIdleMin {
				fleet[i].alive = false
				if cfg.WarmupEveryMin == 0 {
					record(minute)
				}
			}
		}
	}
	return res
}
