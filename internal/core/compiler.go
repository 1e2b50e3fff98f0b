package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"p4runpro/internal/dataplane"
	"p4runpro/internal/lang"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
	"p4runpro/internal/smt"
)

// Compiler links P4runpro programs to a provisioned data plane at runtime.
type Compiler struct {
	Plane *dataplane.Plane
	Mgr   *resource.Manager
	Opt   Options

	// passTargets, when set, maps each recirculation pass to a different
	// switch — the paper's §4.1.3 alternative of replacing recirculation
	// with multiple switches deployed on the same path. Nil means every
	// pass runs on this compiler's own switch via recirculation.
	passTargets []PassTarget

	// met holds the observability sinks installed by SetObserver (nil
	// until then: an unobserved compiler records nothing).
	met *compilerMetrics

	mu     sync.Mutex
	linked map[string]*LinkedProgram
}

// compilerMetrics routes per-phase link timings and solver search effort
// into a metrics registry.
type compilerMetrics struct {
	phase  map[string]*obs.Histogram
	solver *smt.Metrics
}

// Compiler phases recorded by the p4runpro_compiler_phase_ns histogram.
const (
	PhaseParse     = "parse"
	PhaseTranslate = "translate"
	PhaseAllocate  = "allocate"
	PhaseInstall   = "install"
	PhaseLink      = "link"
)

// SetObserver wires the compiler into a metrics registry: every Link call
// records its parse/translate/allocate/install phase durations into
// p4runpro_compiler_phase_ns{phase=...}, and every solver search records
// its effort into the p4runpro_solver_* histograms. Call once, before
// concurrent use.
func (c *Compiler) SetObserver(reg *obs.Registry) {
	m := &compilerMetrics{phase: make(map[string]*obs.Histogram), solver: smt.NewMetrics(reg)}
	for _, ph := range []string{PhaseParse, PhaseTranslate, PhaseAllocate, PhaseInstall, PhaseLink} {
		m.phase[ph] = reg.Histogram("p4runpro_compiler_phase_ns",
			"Compiler phase durations per Link call, in nanoseconds.", obs.L("phase", ph))
	}
	c.met = m
}

// observePhase records one phase duration when an observer is attached.
func (c *Compiler) observePhase(phase string, d time.Duration) {
	if c.met != nil {
		c.met.phase[phase].ObserveDuration(d)
	}
}

// PassTarget binds one recirculation pass to a concrete switch.
type PassTarget struct {
	Plane *dataplane.Plane
	Mgr   *resource.Manager
}

// SetPassTargets switches the compiler to chain mode: pass p of every
// program is placed on targets[p]. MaxRecirc must equal len(targets)-1.
func (c *Compiler) SetPassTargets(targets []PassTarget) {
	c.passTargets = targets
	c.Opt.MaxRecirc = len(targets) - 1
}

func (c *Compiler) planeFor(pass int) *dataplane.Plane {
	if c.passTargets == nil {
		return c.Plane
	}
	return c.passTargets[pass].Plane
}

func (c *Compiler) mgrFor(pass int) *resource.Manager {
	if c.passTargets == nil {
		return c.Mgr
	}
	return c.passTargets[pass].Mgr
}

// NewManagerFor creates a resource manager matching a provisioned plane's
// RPB dimensions.
func NewManagerFor(pl *dataplane.Plane) *resource.Manager {
	cfg := pl.SW.Config()
	return resource.NewManager(pl.M, pl.N, cfg.TableCapacity, cfg.MemoryWords)
}

// NewCompiler creates a compiler over a provisioned plane. The resource
// manager is created to match the plane's RPB dimensions.
func NewCompiler(pl *dataplane.Plane, opt Options) *Compiler {
	return &Compiler{
		Plane:  pl,
		Mgr:    NewManagerFor(pl),
		Opt:    opt,
		linked: make(map[string]*LinkedProgram),
	}
}

// LinkStats quantifies one link operation for the deployment-delay
// experiments (§6.2.1): the measured parse and allocation times, the solver
// effort, and the entry/memory volumes that determine the modeled data
// plane update delay.
type LinkStats struct {
	ParseTime  time.Duration
	AllocTime  time.Duration
	Solver     smt.Stats
	EntryCount int
	MemWords   uint32
	// Trace is the span tree of this link operation (parse, translate,
	// allocate, install under a "link" root), for per-deployment timing
	// attribution beyond the aggregate histograms. Nil when the link ran
	// under an untraced context.
	Trace *trace.Node
}

// LinkedProgram is a program currently resident on the data plane.
type LinkedProgram struct {
	Name      string
	ProgramID uint16
	TP        *lang.TProgram
	Alloc     *AllocResult
	// Resources is the primary (first-switch) allocation; chain
	// deployments hold one allocation per switch in passAllocs.
	Resources *resource.ProgramAlloc
	Stats     LinkStats

	passAllocs    []passAlloc
	pidFrom       *resource.Manager // chain mode: the manager owning the ID
	entries       []installedEntry
	addedBranches []int // branch IDs added by incremental case updates

	// deferredInit holds the initialization-block entries of a program
	// linked with LinkProgramDeferredInit (a versioned upgrade's v2): the
	// program is fully resident but claims no traffic until the upgrade
	// commits and InstallDeferredInit enables it.
	deferredInit []plannedEntry
}

// passAlloc is one switch's share of a linked program.
type passAlloc struct {
	mgr   *resource.Manager
	plane *dataplane.Plane
	ra    *resource.ProgramAlloc
}

// Blocks returns the program's committed memory blocks keyed by name.
func (lp *LinkedProgram) Blocks() map[string]resource.MemBlock {
	out := make(map[string]resource.MemBlock)
	if lp.passAllocs == nil && lp.Resources != nil {
		for _, b := range lp.Resources.Blocks {
			out[b.Name] = b
		}
		return out
	}
	for _, pa := range lp.passAllocs {
		for _, b := range pa.ra.Blocks {
			out[b.Name] = b
		}
	}
	return out
}

// Link parses, checks, translates, allocates, and installs every program in
// src, in declaration order. On error, programs linked earlier in the same
// source remain linked (each program is an independent unit, as in the
// paper's workflow).
func (c *Compiler) Link(src string) ([]*LinkedProgram, error) {
	return c.LinkCtx(context.Background(), src)
}

// LinkCtx is Link under the trace carried by ctx: each program's link
// becomes a "link" span with parse/translate/allocate/install children
// under the context's current span.
func (c *Compiler) LinkCtx(ctx context.Context, src string) ([]*LinkedProgram, error) {
	t0 := time.Now()
	file, err := lang.ParseFile(src)
	if err != nil {
		return nil, err
	}
	if err := lang.Check(file); err != nil {
		return nil, err
	}
	parseTime := time.Since(t0)
	c.observePhase(PhaseParse, parseTime)

	var out []*LinkedProgram
	for _, prog := range file.Programs {
		lp, err := c.linkOne(ctx, prog, file.Memories, t0, parseTime, false)
		if err != nil {
			return out, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// LinkProgram links a single already-parsed program.
func (c *Compiler) LinkProgram(prog *lang.Program, mems []lang.MemDecl) (*LinkedProgram, error) {
	return c.linkOne(context.Background(), prog, mems, time.Time{}, 0, false)
}

// LinkProgramDeferredInit links a program with its initialization-block
// entries withheld: every RPB and recirculation entry is installed and every
// resource committed, but no init-table filter claims traffic for it. A
// versioned upgrade links v2 this way so the dispatch gate alone decides
// which packets run it; InstallDeferredInit enables the withheld entries at
// commit.
func (c *Compiler) LinkProgramDeferredInit(prog *lang.Program, mems []lang.MemDecl) (*LinkedProgram, error) {
	return c.linkOne(context.Background(), prog, mems, time.Time{}, 0, true)
}

func (c *Compiler) linkOne(ctx context.Context, prog *lang.Program, mems []lang.MemDecl, parseStart time.Time, parseTime time.Duration, deferInit bool) (lp *LinkedProgram, err error) {
	c.mu.Lock()
	if _, dup := c.linked[prog.Name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: program %q already linked", prog.Name)
	}
	c.mu.Unlock()

	lstart := time.Now()
	span := trace.StartChild(ctx, PhaseLink)
	span.SetTag("program", prog.Name)
	defer func() {
		if err != nil {
			span.SetTag("err", err.Error())
		}
		span.End()
	}()
	if parseTime > 0 {
		// Parsing happened in LinkCtx before per-program work; attribute the
		// shared measurement to this program's trace.
		span.ChildAt(PhaseParse, parseStart, parseTime)
	}
	tstart := time.Now()
	tp, err := lang.Translate(prog, mems)
	tdur := time.Since(tstart)
	span.ChildAt(PhaseTranslate, tstart, tdur)
	c.observePhase(PhaseTranslate, tdur)
	if err != nil {
		return nil, err
	}
	astart := time.Now()
	alloc, err := c.Allocate(tp)
	adur := time.Since(astart)
	span.ChildAt(PhaseAllocate, astart, adur)
	c.observePhase(PhaseAllocate, adur)
	if err != nil {
		return nil, err
	}

	// Reserve resources atomically: memory blocks placed in the RPB of
	// their first access, entries aggregated per physical RPB, grouped by
	// the switch (resource manager) hosting each pass.
	firstAccess := tp.FirstAccessDepth()
	rpbOf := make(map[int]resource.RPBID, tp.L())
	passOf := make(map[int]int, tp.L())
	for _, pl := range alloc.Placements {
		rpbOf[pl.Depth] = pl.RPB
		passOf[pl.Depth] = pl.Pass
	}
	groups := make(map[*resource.Manager]*passAlloc)
	var order []*passAlloc
	groupFor := func(pass int) *passAlloc {
		mgr := c.mgrFor(pass)
		if g, ok := groups[mgr]; ok {
			return g
		}
		g := &passAlloc{
			mgr:   mgr,
			plane: c.planeFor(pass),
			ra:    &resource.ProgramAlloc{Name: prog.Name, Entries: make(map[resource.RPBID]int)},
		}
		groups[mgr] = g
		order = append(order, g)
		return g
	}
	var memWords uint32
	for _, md := range tp.Memories {
		d := firstAccess[md.Name]
		g := groupFor(passOf[d])
		g.ra.Blocks = append(g.ra.Blocks, resource.MemBlock{
			Name: md.Name,
			RPB:  rpbOf[d],
			Size: md.Size,
		})
		memWords += md.Size
	}
	for d := 1; d <= tp.L(); d++ {
		if n := tp.EntriesAt(d); n > 0 {
			groupFor(passOf[d]).ra.Entries[rpbOf[d]] += n
		}
	}
	if len(order) == 0 {
		order = append(order, groupFor(0))
	}

	// Chain mode: the first switch's manager owns the program-ID space.
	var pidFrom *resource.Manager
	if c.passTargets != nil {
		pidFrom = c.mgrFor(0)
		pid := pidFrom.AllocPID()
		for _, g := range order {
			g.ra.ProgramID = pid
		}
	}
	var committed []*passAlloc
	rollbackGroups := func() {
		for _, g := range committed {
			if a, err := g.mgr.BeginRevoke(prog.Name); err == nil {
				_ = g.mgr.FinishRevoke(a)
			}
		}
		if pidFrom != nil {
			pidFrom.FreePID(order[0].ra.ProgramID)
		}
	}
	for _, g := range order {
		if err := g.mgr.Commit(g.ra); err != nil {
			rollbackGroups()
			return nil, &AllocError{Program: prog.Name, Reason: err.Error(), Err: err}
		}
		committed = append(committed, g)
	}
	primary := order[0]

	lp = &LinkedProgram{
		Name:      prog.Name,
		ProgramID: primary.ra.ProgramID,
		TP:        tp,
		Alloc:     alloc,
		Resources: primary.ra,
		Stats: LinkStats{
			ParseTime: parseTime,
			AllocTime: alloc.Duration,
			Solver:    alloc.Stats,
			MemWords:  memWords,
		},
	}
	for _, g := range order {
		lp.passAllocs = append(lp.passAllocs, *g)
	}
	lp.pidFrom = pidFrom

	plan, err := c.planEntries(tp, alloc, lp.ProgramID, lp.Blocks())
	if err != nil {
		rollbackGroups()
		return nil, err
	}
	for _, pe := range plan {
		if pe.kind != kindRPB {
			primary.ra.ExtraTE++
		}
	}
	// Allocation checks RPB tables only; the init and recirculation tables
	// can still be full. Refuse such a plan before installing anything,
	// rather than failing mid-install and unwinding.
	if err := checkRoom(plan, deferInit); err != nil {
		rollbackGroups()
		return nil, &AllocError{Program: prog.Name, Reason: err.Error(), Err: err}
	}

	// Consistent update (Figure 6): program components first, the
	// initialization block last, each entry installed atomically.
	istart := time.Now()
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].kind < plan[j].kind })
	lp.entries = make([]installedEntry, 0, len(plan)) // room for deferred init entries too
	for _, pe := range plan {
		if deferInit && pe.kind == kindInit {
			lp.deferredInit = append(lp.deferredInit, pe)
			continue
		}
		id, err := pe.table.Insert(pe.keys, pe.priority, pe.action, pe.params, prog.Name)
		if err != nil {
			c.rollbackEntries(lp)
			rollbackGroups()
			return nil, &AllocError{Program: prog.Name, Reason: "entry installation failed: " + err.Error(), Err: err}
		}
		lp.entries = append(lp.entries, pe.installed(id))
	}
	lp.Stats.EntryCount = len(lp.entries)
	idur := time.Since(istart)
	span.ChildAt(PhaseInstall, istart, idur)
	c.observePhase(PhaseInstall, idur)
	// The link histogram covers parse through install, so add the shared
	// parse time measured before this program's span opened.
	c.observePhase(PhaseLink, time.Since(lstart)+parseTime)
	span.End()
	lp.Stats.Trace = span.Tree()

	c.mu.Lock()
	c.linked[prog.Name] = lp
	c.mu.Unlock()
	return lp, nil
}

// checkRoom reports the first table, in plan order, whose free room is less
// than the entries the plan installs in it now (deferred init entries wait
// for InstallDeferredInit).
func checkRoom(plan []plannedEntry, deferInit bool) error {
	need := make(map[*rmt.Table]int)
	for _, pe := range plan {
		if !deferInit || pe.kind != kindInit {
			need[pe.table]++
		}
	}
	for _, pe := range plan {
		if free := pe.table.Free(); need[pe.table] > free {
			return fmt.Errorf("table %s has room for %d entries, program needs %d", pe.table.Name, free, need[pe.table])
		}
	}
	return nil
}

func (c *Compiler) rollbackEntries(lp *LinkedProgram) {
	for i := len(lp.entries) - 1; i >= 0; i-- {
		_ = lp.entries[i].table.Delete(lp.entries[i].id)
	}
	lp.entries = nil
}

// RevokeStats quantifies one revoke operation.
type RevokeStats struct {
	EntriesDeleted int
	MemWordsReset  uint32
}

// Revoke unlinks a program with the paper's consistent deletion order:
// initialization-block filters go first (disabling the program ID stops all
// components at once), then the remaining entries, then the program's
// memory is locked, reset, and only then returned for reallocation.
func (c *Compiler) Revoke(name string) (RevokeStats, error) {
	c.mu.Lock()
	lp, ok := c.linked[name]
	if ok {
		delete(c.linked, name)
	}
	c.mu.Unlock()
	if !ok {
		return RevokeStats{}, fmt.Errorf("core: program %q not linked", name)
	}

	var st RevokeStats
	// Initialization block first.
	for _, e := range lp.entries {
		if e.kind == kindInit {
			if err := e.table.Delete(e.id); err != nil {
				return st, err
			}
			st.EntriesDeleted++
		}
	}
	for _, e := range lp.entries {
		if e.kind != kindInit {
			if err := e.table.Delete(e.id); err != nil {
				return st, err
			}
			st.EntriesDeleted++
		}
	}

	// Lock, reset, and free memory on every switch holding a share.
	passAllocs := lp.passAllocs
	if passAllocs == nil {
		passAllocs = []passAlloc{{mgr: c.Mgr, plane: c.Plane, ra: lp.Resources}}
	}
	for _, pa := range passAllocs {
		ra, err := pa.mgr.BeginRevoke(name)
		if err != nil {
			return st, err
		}
		for _, b := range ra.Blocks {
			arr, err := pa.plane.Array(b.RPB)
			if err != nil {
				return st, err
			}
			if err := arr.ResetRange(b.Start, b.Size); err != nil {
				return st, err
			}
			st.MemWordsReset += b.Size
		}
		if err := pa.mgr.FinishRevoke(ra); err != nil {
			return st, err
		}
	}
	if lp.pidFrom != nil {
		lp.pidFrom.FreePID(lp.ProgramID)
	}
	return st, nil
}

// Linked returns the linked program by name.
func (c *Compiler) Linked(name string) (*LinkedProgram, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lp, ok := c.linked[name]
	return lp, ok
}

// Programs lists linked program names in sorted order.
func (c *Compiler) Programs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.linked))
	for n := range c.linked {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
