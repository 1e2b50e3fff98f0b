package fleet

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"p4runpro/internal/obs/trace"
	"p4runpro/internal/wire"
)

// ErrProbeTimeout reports a health probe exceeding Options.ProbeTimeout.
var ErrProbeTimeout = errors.New("fleet: health probe timed out")

// Start launches the health-check and reconcile loops. Stop with Stop.
func (f *Fleet) Start() {
	f.mu.Lock()
	if f.done != nil {
		f.mu.Unlock()
		return
	}
	f.done = make(chan struct{})
	f.mu.Unlock()
	f.wg.Add(2)
	go f.healthLoop()
	go f.reconcileLoop()
}

// Stop halts the background loops and waits for them to exit. The fleet
// API keeps working after Stop; only probing and reconciliation cease.
func (f *Fleet) Stop() {
	f.mu.Lock()
	done := f.done
	f.done = nil
	f.mu.Unlock()
	if done == nil {
		return
	}
	close(done)
	f.wg.Wait()
}

func (f *Fleet) doneCh() chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// healthLoop ticks at a quarter of the probe interval and fires any
// member whose next-probe time has arrived; probes run concurrently, one
// in flight per member.
func (f *Fleet) healthLoop() {
	defer f.wg.Done()
	done := f.doneCh()
	tick := f.opt.ProbeInterval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		now := time.Now()
		f.mu.Lock()
		var due []*member
		for _, name := range f.order {
			m := f.members[name]
			if !m.probing && !m.nextProbe.After(now) {
				m.probing = true
				due = append(due, m)
			}
		}
		f.mu.Unlock()
		for _, m := range due {
			m := m
			go func() {
				f.probe(m)
				f.mu.Lock()
				m.probing = false
				f.mu.Unlock()
			}()
		}
	}
}

// probe runs one bounded health check against a member: a utilization
// fetch, which doubles as the placement view refresh. The call runs in
// its own goroutine so a hung backend costs the timeout, not a pinned
// loop (the goroutine finishes in the background and its late result is
// dropped).
func (f *Fleet) probe(m *member) {
	start := time.Now()
	type res struct {
		rows []wire.UtilizationRow
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		rows, err := wire.Call[[]wire.UtilizationRow](context.Background(), m.b, wire.MethodUtilization, nil)
		ch <- res{rows, err}
	}()
	var r res
	select {
	case r = <-ch:
	case <-time.After(f.opt.ProbeTimeout):
		r.err = ErrProbeTimeout
	}
	f.m.hProbeNs.ObserveDuration(time.Since(start))
	if r.err != nil {
		f.m.cProbeErr.Inc()
		f.noteFailure(m, r.err)
		return
	}
	f.m.cProbeOK.Inc()
	f.noteSuccess(m, r.rows)
}

// noteSuccess records a working interaction: the member returns to
// Healthy, and a fresh utilization snapshot (when provided) updates its
// placement view. A member rejoining from Down kicks reconciliation so
// its stale programs are cleaned up promptly.
func (f *Fleet) noteSuccess(m *member, util []wire.UtilizationRow) {
	f.mu.Lock()
	wasDown := m.state == Down
	if m.state != Healthy {
		f.log.Infof("fleet: member %s healthy (was %s)", m.name, m.state)
		f.flight.Record(trace.Event{Kind: trace.EvHealth, Name: m.name, Detail: "healthy (was " + m.state.String() + ")"})
	}
	m.state = Healthy
	m.consecFails = 0
	m.lastErr = nil
	m.lastProbe = time.Now()
	m.nextProbe = m.lastProbe.Add(f.opt.ProbeInterval)
	if util != nil {
		m.util = util
	}
	f.mu.Unlock()
	if wasDown {
		f.kickReconcile()
	}
}

// noteFailure records a failed interaction (probe or fan-out call) and
// advances the state machine: healthy → suspect on the first failure,
// suspect → down at the DownAfter threshold. Failing members are
// re-probed on a jittered exponential backoff starting at half the probe
// interval, capped at eight intervals — the jitter (half the deterministic
// delay plus a random half) de-synchronizes re-probes when many members
// fail together, e.g. after a shared network partition. A down transition
// kicks an immediate reconcile pass — that is the failover trigger.
func (f *Fleet) noteFailure(m *member, err error) {
	f.mu.Lock()
	m.consecFails++
	m.lastErr = err
	m.lastProbe = time.Now()
	backoff, maxBackoff := f.opt.ProbeInterval/2, 8*f.opt.ProbeInterval
	for i := 1; i < m.consecFails && backoff < maxBackoff; i++ {
		backoff *= 2
	}
	if backoff > maxBackoff {
		backoff = maxBackoff
	}
	if backoff > 1 {
		backoff = backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
	}
	m.nextProbe = m.lastProbe.Add(backoff)
	wentDown := false
	switch {
	case m.consecFails >= f.opt.DownAfter:
		if m.state != Down {
			wentDown = true
			f.log.Errorf("fleet: member %s down after %d failures: %v", m.name, m.consecFails, err)
			f.flight.Record(trace.Event{Kind: trace.EvHealth, Name: m.name, Detail: "down: " + err.Error()})
		}
		m.state = Down
	default:
		if m.state == Healthy {
			f.log.Errorf("fleet: member %s suspect: %v", m.name, err)
			f.flight.Record(trace.Event{Kind: trace.EvHealth, Name: m.name, Detail: "suspect: " + err.Error()})
		}
		if m.state != Down {
			m.state = Suspect
		}
	}
	f.mu.Unlock()
	if wentDown {
		f.m.cDownTransitions.Inc()
		f.kickReconcile()
	}
}

// stateOf reads a member's state under the fleet lock.
func (f *Fleet) stateOf(m *member) State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return m.state
}

// kickReconcile requests an immediate reconcile pass (coalesced).
func (f *Fleet) kickReconcile() {
	select {
	case f.kick <- struct{}{}:
	default:
	}
}
