// Health-gated rolling upgrades. Fleet.Upgrade drives one deployment
// unit's members through the per-switch versioned-upgrade state machine
// (internal/upgrade, reached through the members' upgrade.* verbs): every
// member prepares v2 next to its running v1, canaries cut over first and
// soak under live traffic, and the remaining members follow in bounded
// waves only while the health gates hold. A gate regression rolls every
// member back to v1; a member that cannot be reached stays pinned to v1
// and is caught up by reconciliation once the unit's desired source has
// advanced to v2.
//
// Within each phase the member RPCs fan out concurrently — prepares,
// a wave's cutovers, its soak samples, and commits are independent per
// member — so a phase costs one slowest-member round trip instead of the
// sum over members. Ordering between phases (and the soak between a wave
// and its judgment) is unchanged.
package fleet

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"p4runpro/internal/obs/trace"
	"p4runpro/internal/wire"
)

// UpgradeOptions tunes a rolling upgrade. The zero value is usable: one
// canary, waves of one, a 250ms soak, no drop-rate or traffic-floor gate,
// three tries per member RPC.
type UpgradeOptions struct {
	// Canaries is the size of the first cutover wave; StageSize bounds
	// each later wave.
	Canaries  int
	StageSize int
	// Soak is how long each wave carries v2 traffic before its health
	// window is judged.
	Soak time.Duration
	// MaxDropRate caps the fraction of switch packets dropped during a
	// member's soak window (0 disables the gate); MinV2PPS is the minimum
	// v2 packet rate the gate must observe (0 disables — an idle member
	// then passes vacuously).
	MaxDropRate float64
	MinV2PPS    float64
	// Retries and RetryBackoff govern each member-level upgrade RPC; a
	// member still failing after Retries tries is pinned to v1, not fatal.
	Retries      int
	RetryBackoff time.Duration
}

func (o UpgradeOptions) withDefaults() UpgradeOptions {
	if o.Canaries <= 0 {
		o.Canaries = 1
	}
	if o.StageSize <= 0 {
		o.StageSize = 1
	}
	if o.Soak <= 0 {
		o.Soak = 250 * time.Millisecond
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	return o
}

// upgradeMember is one member's rollout-local record.
type upgradeMember struct {
	m        *member
	prepared bool
	cutover  bool
	before   wire.UpgradeStatusResult // health-window baseline sample
	beforeAt time.Time
}

// retryUpgradeCall runs one member-level upgrade verb with bounded retries.
func retryUpgradeCall(ctx context.Context, opt UpgradeOptions, m *member, method string, params any) (wire.UpgradeStatusResult, error) {
	var st wire.UpgradeStatusResult
	var err error
	for i := 0; i < opt.Retries; i++ {
		if i > 0 {
			time.Sleep(opt.RetryBackoff)
		}
		if st, err = wire.Call[wire.UpgradeStatusResult](ctx, m.b, method, params); err == nil {
			return st, nil
		}
	}
	return st, err
}

// revertMember puts one member back on v1, best-effort: cut back over
// when it may have flipped, then abort its session. Failures are logged.
func (f *Fleet) revertMember(ctx context.Context, m *member, program string, cutover bool) {
	if cutover {
		if _, err := m.b.Do(ctx, wire.MethodUpgradeCutover, wire.UpgradeCutoverParams{Program: program, Version: 1}, nil); err != nil {
			f.log.Errorf("fleet: rollback cutover %s on %s: %v", program, m.name, err)
		}
	}
	if _, err := m.b.Do(ctx, wire.MethodUpgradeAbort, wire.UpgradeNameParams{Program: program}, nil); err != nil {
		f.log.Errorf("fleet: rollback abort %s on %s: %v", program, m.name, err)
	}
}

// Upgrade rolls the deployment unit containing name (a program name or
// unit key) to the v2 source, member by member, gated on health. It holds
// the fleet's intent lock for the whole rollout, so reconciliation and
// other intent mutations wait until the upgrade commits or rolls back.
//
// The returned result is total: every member of the unit is either
// committed to v2, pinned to v1 (unreachable or repeatedly failing — the
// unit's desired source still advances, so reconciliation converges it
// later), or rolled back to v1 together with the rest when a health gate
// failed. Every member verb runs under ctx, so a traced rollout carries
// its trace to the members.
func (f *Fleet) Upgrade(ctx context.Context, name, v2src string, opt UpgradeOptions) (wire.FleetUpgradeResult, error) {
	opt = opt.withDefaults()
	f.intentMu.Lock()
	defer f.intentMu.Unlock()

	u, ok := f.store.Resolve(name)
	if !ok {
		return wire.FleetUpgradeResult{}, fmt.Errorf("fleet: no unit for %q", name)
	}
	program := name
	if program == u.Key && len(u.Programs) == 1 {
		program = u.Programs[0]
	}
	found := false
	for _, p := range u.Programs {
		if p == program {
			found = true
		}
	}
	if !found {
		return wire.FleetUpgradeResult{}, fmt.Errorf("fleet: %q does not name a single program of unit %q", name, u.Key)
	}

	f.m.cUpgStarted.Inc()
	res := wire.FleetUpgradeResult{Unit: u.Key}
	pin := func(mn string) { res.Pinned = append(res.Pinned, mn) }

	// Phase 1: prepare v2 on every reachable member, fanned out
	// concurrently — prepare is the expensive step (link v2 beside v1 on
	// each member) and members are independent until cutover. Prepare is
	// invisible to traffic (the gate starts pinned to v1), so a failure
	// here only pins that member. Results land in per-member slots so the
	// rollout order stays the unit's member order regardless of which RPC
	// returns first.
	var rollout []*upgradeMember
	{
		slots := make([]*upgradeMember, len(u.Members))
		spawned := make([]bool, len(u.Members))
		var wg sync.WaitGroup
		for i, mn := range u.Members {
			m, ok := f.member(mn)
			if !ok || f.stateOf(m) == Down {
				pin(mn)
				continue
			}
			spawned[i] = true
			wg.Add(1)
			go func(i int, mn string, m *member) {
				defer wg.Done()
				if _, err := retryUpgradeCall(ctx, opt, m, wire.MethodUpgradeStart,
					wire.UpgradeStartParams{Program: program, Source: v2src}); err != nil {
					f.log.Errorf("fleet: upgrade prepare %s on %s: %v", program, mn, err)
					f.noteFailure(m, err)
					return
				}
				slots[i] = &upgradeMember{m: m, prepared: true}
			}(i, mn, m)
		}
		wg.Wait()
		for i, mn := range u.Members {
			switch {
			case slots[i] != nil:
				rollout = append(rollout, slots[i])
			case spawned[i]:
				pin(mn)
			}
		}
	}
	if len(rollout) == 0 {
		f.m.cUpgRolledBack.Inc()
		return res, fmt.Errorf("fleet: no member of %q accepted the v2 prepare", u.Key)
	}
	f.flightEvent(trace.EvUpgrade, u.Key,
		"prepared v2 on "+strconv.Itoa(len(rollout))+"/"+strconv.Itoa(len(u.Members))+" member(s)")

	rollbackAll := func(reason string) wire.FleetUpgradeResult {
		for _, um := range rollout {
			f.revertMember(ctx, um.m, program, um.cutover)
		}
		f.m.cUpgRolledBack.Inc()
		f.log.Errorf("fleet: upgrade of %s rolled back: %s", u.Key, reason)
		f.flightEvent(trace.EvUpgrade, u.Key, "rolled back: "+reason)
		res.RolledBack = true
		res.Reason = reason
		res.Committed = nil
		return res
	}

	// Phase 2: cut waves over — canaries first, then StageSize at a time —
	// soaking each wave under traffic and judging its health window before
	// the next wave starts.
	for start := 0; start < len(rollout); {
		size := opt.StageSize
		if start == 0 {
			size = opt.Canaries
		}
		if start+size > len(rollout) {
			size = len(rollout) - start
		}
		wave := rollout[start : start+size]
		res.Waves++

		// Cut the whole wave over concurrently; success flags and baseline
		// samples land in wave-indexed slots so the post-wait bookkeeping
		// keeps member order.
		live := make([]*upgradeMember, 0, len(wave))
		{
			flipped := make([]bool, len(wave))
			sts := make([]wire.UpgradeStatusResult, len(wave))
			var wg sync.WaitGroup
			for i, um := range wave {
				wg.Add(1)
				go func(i int, um *upgradeMember) {
					defer wg.Done()
					st, err := retryUpgradeCall(ctx, opt, um.m, wire.MethodUpgradeCutover,
						wire.UpgradeCutoverParams{Program: program, Version: 2})
					if err != nil {
						// The member may or may not have flipped; force it back
						// to v1 best-effort rather than failing the wave.
						f.log.Errorf("fleet: cutover %s on %s: %v", program, um.m.name, err)
						f.noteFailure(um.m, err)
						f.revertMember(ctx, um.m, program, true)
						um.prepared = false
						return
					}
					flipped[i], sts[i] = true, st
				}(i, um)
			}
			wg.Wait()
			baseAt := time.Now()
			for i, um := range wave {
				if !flipped[i] {
					pin(um.m.name)
					continue
				}
				f.m.hUpgCutoverNs.Observe(uint64(sts[i].CutoverNs))
				um.cutover = true
				um.before = sts[i]
				um.beforeAt = baseAt
				live = append(live, um)
			}
		}
		kept := make([]*upgradeMember, 0, len(rollout))
		kept = append(kept, rollout[:start]...)
		kept = append(kept, live...)
		kept = append(kept, rollout[start+size:]...)
		rollout = kept
		if len(live) == 0 {
			continue
		}
		f.flightEvent(trace.EvCutover, u.Key,
			"wave "+strconv.Itoa(res.Waves)+": "+strconv.Itoa(len(live))+" member(s) on v2")

		time.Sleep(opt.Soak)
		// Sample every soaked member concurrently, then judge in member
		// order so the rollback reason is deterministic.
		afters := make([]wire.UpgradeStatusResult, len(live))
		errs := make([]error, len(live))
		var wg sync.WaitGroup
		for i, um := range live {
			wg.Add(1)
			go func(i int, um *upgradeMember) {
				defer wg.Done()
				afters[i], errs[i] = retryUpgradeCall(ctx, opt, um.m, wire.MethodUpgradeStatus,
					wire.UpgradeNameParams{Program: program})
			}(i, um)
		}
		wg.Wait()
		for i, um := range live {
			if errs[i] != nil {
				return rollbackAll(fmt.Sprintf("health sample on %s failed: %v", um.m.name, errs[i])), nil
			}
			if reason := judgeHealth(opt, um, afters[i]); reason != "" {
				return rollbackAll(fmt.Sprintf("%s on %s", reason, um.m.name)), nil
			}
		}
		start += len(live)
	}

	// Phase 3: every wave held — commit, fanned out concurrently. A member
	// whose commit fails is rolled back individually and pinned; the rest
	// proceed.
	{
		committed := make([]bool, len(rollout))
		var wg sync.WaitGroup
		for i, um := range rollout {
			if !um.cutover {
				continue
			}
			wg.Add(1)
			go func(i int, um *upgradeMember) {
				defer wg.Done()
				if _, err := retryUpgradeCall(ctx, opt, um.m, wire.MethodUpgradeCommit,
					wire.UpgradeNameParams{Program: program}); err != nil {
					f.log.Errorf("fleet: commit %s on %s: %v", program, um.m.name, err)
					f.revertMember(ctx, um.m, program, true)
					return
				}
				committed[i] = true
			}(i, um)
		}
		wg.Wait()
		for i, um := range rollout {
			if !um.cutover {
				continue
			}
			if committed[i] {
				res.Committed = append(res.Committed, um.m.name)
			} else {
				pin(um.m.name)
			}
		}
	}
	if len(res.Committed) == 0 {
		f.m.cUpgRolledBack.Inc()
		return res, fmt.Errorf("fleet: no member of %q committed v2", u.Key)
	}

	// Advance the unit's desired source so future failovers, top-ups, and
	// re-deploys of pinned members place v2.
	u.Source = v2src
	if err := f.store.Put(u); err != nil {
		return res, fmt.Errorf("fleet: record v2 source: %w", err)
	}
	f.m.cUpgCommitted.Inc()
	f.log.Infof("fleet: upgraded %s on %v in %d waves (%d pinned)",
		u.Key, res.Committed, res.Waves, len(res.Pinned))
	f.flightEvent(trace.EvUpgrade, u.Key,
		"committed on "+strconv.Itoa(len(res.Committed))+" member(s), "+strconv.Itoa(len(res.Pinned))+" pinned")
	return res, nil
}

// judgeHealth evaluates one member's soak window against the gates and
// returns a rollback reason, or "" when healthy.
func judgeHealth(opt UpgradeOptions, um *upgradeMember, after wire.UpgradeStatusResult) string {
	if after.ActiveVersion != 2 {
		return "member fell back to v1 during soak"
	}
	elapsed := time.Since(um.beforeAt).Seconds()
	if opt.MinV2PPS > 0 && elapsed > 0 {
		pps := float64(after.V2Packets-um.before.V2Packets) / elapsed
		if pps < opt.MinV2PPS {
			return fmt.Sprintf("v2 traffic %.1f pps below floor %.1f", pps, opt.MinV2PPS)
		}
	}
	if opt.MaxDropRate > 0 {
		pkts := after.SwitchPackets - um.before.SwitchPackets
		drops := after.SwitchDrops - um.before.SwitchDrops
		if pkts > 0 {
			rate := float64(drops) / float64(pkts)
			if rate > opt.MaxDropRate {
				return fmt.Sprintf("drop rate %.3f above gate %.3f", rate, opt.MaxDropRate)
			}
		}
	}
	return ""
}
