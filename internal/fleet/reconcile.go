package fleet

import (
	"context"
	"sort"
	"strconv"
	"time"

	"p4runpro/internal/obs/trace"
	"p4runpro/internal/wire"
)

// reconcileLoop periodically diffs desired vs. actual state, and runs
// immediately when kicked (a member going down or rejoining).
func (f *Fleet) reconcileLoop() {
	defer f.wg.Done()
	done := f.doneCh()
	t := time.NewTicker(f.opt.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		case <-f.kick:
		}
		f.Reconcile()
	}
}

// deployIntent is one deferred unit deployment queued against a member
// during a reconcile pass. All of a member's intents flush as a single
// batched deploy (one deploy.batch), so failing over hundreds of units to
// a survivor costs one round trip, not hundreds. ok is set by flushDeploys
// when the deploy landed.
type deployIntent struct {
	unitKey  string
	source   string
	programs []string
	member   string
	repair   bool
	ok       bool
}

// Reconcile runs one desired-vs-actual pass:
//
//  1. drop unit assignments pointing at Down (or removed) members — each
//     dropped assignment is a failover that must be replaced;
//  2. repair divergence on live assigned members (a unit partially or
//     wholly missing is revoked clean and re-deployed from the stored
//     source);
//  3. top up units below their replica target on the first ranked
//     healthy members whose deploy.plan says the unit links there;
//  4. revoke orphans — fleet-owned programs sitting on members the store
//     no longer assigns (e.g. a revived member whose units failed over
//     while it was down). Programs the store has never heard of are left
//     alone; they belong to out-of-band operators.
//
// Deploys discovered by steps 2 and 3 are not issued inline: they queue
// as intents and flush after every unit is diffed, one batch per member.
// Membership is recorded only after the flush reports which intents
// landed; a failed intent leaves its slot open for the next pass instead
// of falling through to the next-ranked candidate, keeping the pass at
// O(members) deploy round trips instead of O(units).
//
// It is safe to call manually (tests, CLI) and serializes with
// Deploy/Revoke.
func (f *Fleet) Reconcile() {
	f.intentMu.Lock()
	defer f.intentMu.Unlock()
	ctx := context.Background()
	start := time.Now()
	f.m.cReconcileRuns.Inc()

	// One listing per live member for the whole pass.
	type listing struct {
		m        *member
		programs map[string]bool
	}
	listings := make(map[string]*listing)
	f.mu.Lock()
	names := append([]string(nil), f.order...)
	f.mu.Unlock()
	for _, name := range names {
		m, ok := f.member(name)
		if !ok || f.stateOf(m) != Healthy {
			continue
		}
		infos, err := wire.Call[[]wire.ProgramInfo](ctx, m.b, wire.MethodPrograms, nil)
		if err != nil {
			f.noteFailure(m, err)
			continue
		}
		set := make(map[string]bool, len(infos))
		for _, pi := range infos {
			set[pi.Name] = true
		}
		f.mu.Lock()
		m.programs = len(infos)
		f.mu.Unlock()
		listings[name] = &listing{m: m, programs: set}
	}

	intents := make(map[string][]*deployIntent)
	queue := func(member string, u *Unit, repair bool) *deployIntent {
		it := &deployIntent{unitKey: u.Key, source: u.Source,
			programs: u.Programs, member: member, repair: repair}
		intents[member] = append(intents[member], it)
		return it
	}
	type unitPlan struct {
		u         *Unit
		confirmed []string
		pending   []*deployIntent
	}
	var plans []unitPlan
	// The member order, taken once: nothing before the flush changes the
	// store or the utilization views it ranks by.
	ranked := rank(f.liveViews())

	for _, u := range f.store.List() {
		assigned := make([]string, 0, len(u.Members))
		failedOver := 0
		for _, name := range u.Members {
			m, ok := f.member(name)
			if !ok || f.stateOf(m) == Down {
				failedOver++
				continue
			}
			assigned = append(assigned, name)
		}
		if failedOver > 0 {
			f.m.cFailovers.Add(uint64(failedOver))
			f.log.Errorf("fleet: unit %s lost %d replica(s), re-placing", u.Key, failedOver)
			f.flight.Record(trace.Event{Kind: trace.EvReconcile, Name: u.Key, Detail: "lost " + strconv.Itoa(failedOver) + " replica(s)"})
		}

		// Repair divergence on members we could list: the partial copy is
		// cleared now, the re-deploy rides the member's batch.
		kept := assigned[:0]
		var pending []*deployIntent
		for _, name := range assigned {
			l, ok := listings[name]
			if !ok {
				kept = append(kept, name) // suspect/unlistable: keep assignment
				continue
			}
			missing := 0
			for _, p := range u.Programs {
				if !l.programs[p] {
					missing++
				}
			}
			if missing == 0 {
				kept = append(kept, name)
				continue
			}
			for _, p := range u.Programs {
				if l.programs[p] {
					f.revokeUnitOn(ctx, name, []string{p})
					delete(l.programs, p)
				}
			}
			pending = append(pending, queue(name, u, true))
		}
		assigned = kept

		// Members holding or about to hold the unit: neither adopted nor
		// topped up again.
		inUnit := make(map[string]bool, len(assigned)+len(pending))
		for _, n := range assigned {
			inUnit[n] = true
		}
		for _, it := range pending {
			inUnit[it.member] = true
		}

		// Adopt rejoined members that already hold the whole unit — e.g. a
		// member that recovered its programs from a write-ahead journal
		// after a crash. Adopting re-uses the intact copy; without this the
		// top-up would fill the slot elsewhere and the orphan sweep would
		// revoke the survivor. Iterate in member order for determinism.
		for _, name := range names {
			if len(assigned)+len(pending) >= u.Replicas || len(u.Programs) == 0 {
				break
			}
			l, ok := listings[name]
			if !ok || inUnit[name] {
				continue
			}
			complete := true
			for _, p := range u.Programs {
				if !l.programs[p] {
					complete = false
					break
				}
			}
			if !complete {
				continue
			}
			assigned = append(assigned, name)
			inUnit[name] = true
			f.m.cReconcileAdoptions.Inc()
			f.log.Infof("fleet: unit %s adopted intact copy on rejoined member %s", u.Key, name)
			f.flight.Record(trace.Event{Kind: trace.EvReconcile, Name: u.Key, Detail: "adopted intact copy on " + name})
		}

		// Top up to the replica target: claim the first ranked members
		// whose plan says the unit links there; their deploys ride the
		// members' batches too.
		if open := u.Replicas - len(assigned) - len(pending); open > 0 {
			fits, _, refusal := f.place(ctx, u.Source, ranked, inUnit, open, nil)
			if len(fits) < open {
				f.log.Errorf("fleet: unit %s below target (%d/%d): %v",
					u.Key, u.Replicas-open+len(fits), u.Replicas, refusal)
			}
			for _, name := range fits {
				pending = append(pending, queue(name, u, false))
			}
		}
		plans = append(plans, unitPlan{u: u, confirmed: assigned, pending: pending})
	}

	// Flush: one batched deploy per member, in name order for determinism.
	flushTo := make([]string, 0, len(intents))
	for name := range intents {
		flushTo = append(flushTo, name)
	}
	sort.Strings(flushTo)
	for _, name := range flushTo {
		f.flushDeploys(ctx, name, intents[name])
	}

	// Record membership from what actually landed.
	var placed []string
	for _, pl := range plans {
		assigned := pl.confirmed
		for _, it := range pl.pending {
			if !it.ok {
				continue
			}
			assigned = append(assigned, it.member)
			f.m.cReconcileDeploys.Inc()
			if l, ok := listings[it.member]; ok {
				for _, p := range it.programs {
					l.programs[p] = true
				}
			}
			if !it.repair {
				placed = append(placed, it.member)
				f.log.Infof("fleet: unit %s re-placed on %s", pl.u.Key, it.member)
				f.flight.Record(trace.Event{Kind: trace.EvReconcile, Name: pl.u.Key, Detail: "re-placed on " + it.member})
			}
		}
		f.store.SetMembers(pl.u.Key, assigned)
	}
	if len(placed) > 0 {
		f.refreshUtil(ctx, placed)
	}

	// Orphan sweep against the updated assignments.
	for name, l := range listings {
		for p := range l.programs {
			u, ok := f.store.Resolve(p)
			if !ok || u.hasMember(name) {
				continue
			}
			f.revokeUnitOn(ctx, name, []string{p})
			f.m.cReconcileRevokes.Inc()
			f.log.Infof("fleet: revoked orphan %s from %s", p, name)
			f.flight.Record(trace.Event{Kind: trace.EvReconcile, Name: p, Detail: "revoked orphan from " + name})
		}
	}
	f.m.hReconcileNs.ObserveDuration(time.Since(start))
}

// flushDeploys issues one member's queued deploys as a single non-atomic
// deploy.batch. Per-unit failures mark only that intent; a transport-level
// batch failure leaves every intent unplaced and is charged against the
// member's health.
func (f *Fleet) flushDeploys(ctx context.Context, name string, its []*deployIntent) {
	m, ok := f.member(name)
	if !ok {
		return
	}
	sources := make([]string, len(its))
	for i, it := range its {
		sources[i] = it.source
	}
	res, err := wire.Call[wire.DeployBatchResult](ctx, m.b, wire.MethodDeployBatch, wire.DeployBatchParams{Sources: sources})
	if err != nil {
		f.log.Errorf("fleet: batch deploy of %d unit(s) on %s: %v", len(its), name, err)
		f.noteFailure(m, err)
		return
	}
	for i, item := range res.Items {
		if i >= len(its) {
			break
		}
		if item.Error != "" {
			f.log.Errorf("fleet: deploy %s on %s: %s", its[i].unitKey, name, item.Error)
			continue
		}
		its[i].ok = true
	}
}
