package core

import (
	"context"
	"fmt"
	"slices"
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

	// linked is the one record of what each program holds, by name. A nil
	// value claims the name for a link between stage and registration, so
	// concurrent links of one name get one winner.
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

// LinkedProgram is a program currently resident on the data plane: with its
// memory shares and installed entries, it records everything the program
// holds.
type LinkedProgram struct {
	Name      string
	ProgramID uint16
	TP        *lang.TProgram
	Alloc     *AllocResult
	Stats     LinkStats

	mems          []memShare       // one per switch holding memory of the program
	entries       []installedEntry // RPB entries each reserve one entry of their RPB
	addedBranches []int            // branch IDs added by incremental case updates

	// deferredInit holds the initialization-block entries of a program
	// linked with LinkProgramDeferredInit (a versioned upgrade's v2): the
	// program is fully resident but claims no traffic until the upgrade
	// commits and InstallDeferredInit enables it.
	deferredInit []plannedEntry
}

// memShare is the memory one switch holds for a linked program.
type memShare struct {
	mgr    *resource.Manager
	plane  *dataplane.Plane
	blocks []resource.MemBlock
}

// Blocks returns the program's committed memory blocks keyed by name.
func (lp *LinkedProgram) Blocks() map[string]resource.MemBlock {
	out := make(map[string]resource.MemBlock)
	for _, s := range lp.mems {
		for _, b := range s.blocks {
			out[b.Name] = b
		}
	}
	return out
}

// Link parses, checks, translates, allocates, and installs every program in
// src, in declaration order, under the trace carried by ctx: each
// program's link becomes a "link" span with parse/translate/allocate/install
// children under the context's current span. On error, programs linked
// earlier in the same source remain linked (each program is an independent
// unit, as in the paper's workflow).
func (c *Compiler) Link(ctx context.Context, src string) ([]*LinkedProgram, error) {
	file, t0, parseTime, err := parse(src)
	if err != nil {
		return nil, err
	}
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

// Plan runs Link's steps short of installing any entry for every program
// in src, in order, each against the live state plus what the earlier ones
// reserved, then releases every reservation newest-first. The returned
// programs carry the placements, memory blocks, entry count and memory
// words a Link of src would produce now, and its error is the one Link
// would return; none of them is linked. No phase or solver metric is
// recorded, so those keep measuring links. The caller keeps concurrent
// mutations out for the duration.
func (c *Compiler) Plan(ctx context.Context, src string) ([]*LinkedProgram, error) {
	file, t0, parseTime, err := parse(src)
	if err != nil {
		return nil, err
	}
	held := make(map[*rmt.Table]int)
	out := make([]*LinkedProgram, 0, len(file.Programs))
	for _, prog := range file.Programs {
		st, err := c.stage(ctx, prog, file.Memories, t0, parseTime, false, held)
		if err != nil {
			return nil, err
		}
		st.span.End()
		defer st.release() // deferred, so newest-first
		for _, pe := range st.plan {
			held[pe.table]++
		}
		st.lp.Stats.EntryCount = len(st.plan)
		out = append(out, st.lp)
	}
	return out, nil
}

// parse parses and checks src.
func parse(src string) (file *lang.File, t0 time.Time, parseTime time.Duration, err error) {
	t0 = time.Now()
	if file, err = lang.ParseFile(src); err == nil {
		err = lang.Check(file)
	}
	if err != nil {
		return nil, t0, 0, err
	}
	return file, t0, time.Since(t0), nil
}

// LinkProgram links a single already-parsed program.
func (c *Compiler) LinkProgram(prog *lang.Program, mems []lang.MemDecl) (*LinkedProgram, error) {
	return c.linkOne(context.Background(), prog, mems, time.Time{}, 0, false)
}

// LinkProgramDeferredInit links a program with its initialization-block
// entries withheld: every RPB and recirculation entry is installed and every
// resource committed, but no init-table filter claims traffic for it. A
// versioned upgrade links v2 this way so its cutover entries alone decide
// which packets run it; InstallDeferredInit enables the withheld entries at
// commit.
func (c *Compiler) LinkProgramDeferredInit(prog *lang.Program, mems []lang.MemDecl) (*LinkedProgram, error) {
	return c.linkOne(context.Background(), prog, mems, time.Time{}, 0, true)
}

// stagedLink is a program between the two halves of a link: translated,
// allocated, its resources reserved and its entries planned, nothing
// installed. span is its open trace span, which the caller ends.
type stagedLink struct {
	lp      *LinkedProgram
	plan    []plannedEntry
	span    *trace.Span
	start   time.Time
	release func() // returns every reservation and the name
}

// linkOne is stage followed by install: the pre-install half Plan shares,
// then the entries in consistent-update order and the registration.
func (c *Compiler) linkOne(ctx context.Context, prog *lang.Program, mems []lang.MemDecl, parseStart time.Time, parseTime time.Duration, deferInit bool) (lp *LinkedProgram, err error) {
	st, err := c.stage(ctx, prog, mems, parseStart, parseTime, deferInit, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.span.SetTag("err", err.Error())
		}
		st.span.End()
	}()
	lp, span, plan := st.lp, st.span, st.plan

	// Consistent update (Figure 6): program components first, the
	// initialization block last, each table's entries in one batch.
	istart := time.Now()
	if lp.entries, err = install(prog.Name, plan); err != nil {
		st.release()
		return nil, &AllocError{Program: prog.Name, Reason: "entry installation failed: " + err.Error(), Err: err}
	}
	lp.Stats.EntryCount = len(lp.entries)
	idur := time.Since(istart)
	span.ChildAt(PhaseInstall, istart, idur)
	c.observePhase(PhaseInstall, idur)
	// The link histogram covers parse through install, so add the shared
	// parse time measured before this program's span opened.
	c.observePhase(PhaseLink, time.Since(st.start)+parseTime)
	span.End()
	lp.Stats.Trace = span.Tree()

	c.mu.Lock()
	c.linked[prog.Name] = lp
	c.mu.Unlock()
	return lp, nil
}

// stage is the pre-install half of a link: claim the name, translate,
// allocate, commit the memory, take a program ID, plan every entry (deferInit
// moves the init entries to lp.deferredInit), reserve the RPB entries and
// check table room. held counts entries an enclosing plan has already
// claimed per table; it is nil when linking and non-nil when planning, which
// names the span "plan" instead of "link" and records no phase or solver
// metric. On error the span has ended and nothing stays reserved.
func (c *Compiler) stage(ctx context.Context, prog *lang.Program, mems []lang.MemDecl, parseStart time.Time, parseTime time.Duration, deferInit bool, held map[*rmt.Table]int) (st *stagedLink, err error) {
	c.mu.Lock()
	_, dup := c.linked[prog.Name]
	if !dup {
		c.linked[prog.Name] = nil
	}
	c.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("core: program %q already linked", prog.Name)
	}

	name, observePhase := "plan", func(string, time.Duration) {}
	if held == nil {
		name, observePhase = PhaseLink, c.observePhase
	}
	lstart := time.Now()
	span := trace.StartChild(ctx, name)
	span.SetTag("program", prog.Name)
	lp := &LinkedProgram{Name: prog.Name, Stats: LinkStats{ParseTime: parseTime}}
	var reserved []plannedEntry
	defer func() {
		if err != nil {
			c.unstage(lp, reserved)
			span.SetTag("err", err.Error())
			span.End()
		}
	}()
	if parseTime > 0 {
		// Parsing happened in Link or Plan before per-program work; attribute the
		// shared measurement to this program's trace.
		span.ChildAt(PhaseParse, parseStart, parseTime)
	}
	tstart := time.Now()
	lp.TP, err = lang.Translate(prog, mems)
	tdur := time.Since(tstart)
	span.ChildAt(PhaseTranslate, tstart, tdur)
	observePhase(PhaseTranslate, tdur)
	if err != nil {
		return nil, err
	}
	astart := time.Now()
	lp.Alloc, err = c.allocate(lp.TP, held == nil)
	adur := time.Since(astart)
	span.ChildAt(PhaseAllocate, astart, adur)
	observePhase(PhaseAllocate, adur)
	if err != nil {
		return nil, err
	}
	lp.Stats.AllocTime, lp.Stats.Solver = lp.Alloc.Duration, lp.Alloc.Stats

	// Commit each memory block in the RPB of its first access, one commit
	// per switch hosting any, then take the program ID.
	firstAccess := lp.TP.FirstAccessDepth()
	var shares []memShare
	for _, md := range lp.TP.Memories {
		pl := lp.Alloc.Placements[firstAccess[md.Name]-1]
		mgr := c.mgrFor(pl.Pass)
		i := slices.IndexFunc(shares, func(s memShare) bool { return s.mgr == mgr })
		if i < 0 {
			i = len(shares)
			shares = append(shares, memShare{mgr: mgr, plane: c.planeFor(pl.Pass)})
		}
		shares[i].blocks = append(shares[i].blocks, resource.MemBlock{Name: md.Name, RPB: pl.RPB, Size: md.Size})
		lp.Stats.MemWords += md.Size
	}
	for _, s := range shares {
		if err := s.mgr.Commit(s.blocks); err != nil {
			return nil, &AllocError{Program: prog.Name, Reason: err.Error(), Err: err}
		}
		lp.mems = append(lp.mems, s)
	}
	lp.ProgramID = c.Mgr.AllocPID()

	plan, err := c.planEntries(lp.TP, lp.Alloc, lp.ProgramID, lp.Blocks())
	if err != nil {
		return nil, err
	}
	if err := reserve(plan); err != nil {
		return nil, &AllocError{Program: prog.Name, Reason: err.Error(), Err: err}
	}
	reserved = plan
	if deferInit { // planEntries plans the init entries last
		i := slices.IndexFunc(plan, func(pe plannedEntry) bool { return pe.kind == kindInit })
		plan, lp.deferredInit = plan[:i], plan[i:]
	}
	// Allocation checks RPB tables only; the init and recirculation tables
	// can still be full. Refuse such a plan before installing anything,
	// rather than failing mid-install and unwinding.
	if err := checkRoom(plan, held); err != nil {
		return nil, &AllocError{Program: prog.Name, Reason: err.Error(), Err: err}
	}
	return &stagedLink{lp: lp, plan: plan, span: span, start: lstart, release: func() { c.unstage(lp, reserved) }}, nil
}

// unstage returns what stage took for lp: the entries reserved for plan,
// its committed memory (unused, so freed without a reset), its program ID
// and its claim on the name.
func (c *Compiler) unstage(lp *LinkedProgram, plan []plannedEntry) {
	_ = release(plan)
	for _, s := range lp.mems {
		s.mgr.BeginRevoke(s.blocks)
		_ = s.mgr.FinishRevoke(s.blocks)
	}
	if lp.ProgramID != 0 {
		c.Mgr.FreePID(lp.ProgramID)
	}
	c.mu.Lock()
	if c.linked[lp.Name] == nil {
		delete(c.linked, lp.Name)
	}
	c.mu.Unlock()
}

// checkRoom reports the first table, in plan order, whose free room is less
// than the entries the plan installs in it plus the entries held for it
// elsewhere.
func checkRoom(plan []plannedEntry, held map[*rmt.Table]int) error {
	need := make(map[*rmt.Table]int)
	for t, n := range held {
		need[t] = n
	}
	for _, pe := range plan {
		need[pe.table]++
	}
	for _, pe := range plan {
		if free := pe.table.Free(); need[pe.table] > free {
			return fmt.Errorf("table %s has room for %d entries, program needs %d", pe.table.Name, free, need[pe.table])
		}
	}
	return nil
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
	lp := c.linked[name]
	if lp != nil {
		delete(c.linked, name)
	}
	c.mu.Unlock()
	if lp == nil {
		return RevokeStats{}, fmt.Errorf("core: program %q not linked", name)
	}

	if err := retire(lp.entries); err != nil {
		return RevokeStats{}, err
	}
	st := RevokeStats{EntriesDeleted: len(lp.entries)}
	if err := release(lp.entries); err != nil {
		return st, err
	}

	// Lock, reset, and free memory on every switch holding a share.
	for _, s := range lp.mems {
		s.mgr.BeginRevoke(s.blocks)
		for _, b := range s.blocks {
			arr, err := s.plane.Array(b.RPB)
			if err != nil {
				return st, err
			}
			if err := arr.ResetRange(b.Start, b.Size); err != nil {
				return st, err
			}
			st.MemWordsReset += b.Size
		}
		if err := s.mgr.FinishRevoke(s.blocks); err != nil {
			return st, err
		}
	}
	c.Mgr.FreePID(lp.ProgramID)
	return st, nil
}

// Linked returns the linked program by name.
func (c *Compiler) Linked(name string) (*LinkedProgram, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lp := c.linked[name]
	return lp, lp != nil
}

// Memory returns the block behind a linked program's virtual memory on
// this compiler's switch, for control-plane address translation
// (MemBlock.Translate). The errors keep the resource manager's wording,
// which clients see.
func (c *Compiler) Memory(program, mem string) (resource.MemBlock, error) {
	lp, ok := c.Linked(program)
	if !ok {
		return resource.MemBlock{}, fmt.Errorf("resource: program %q not linked", program)
	}
	for _, s := range lp.mems {
		if s.mgr != c.Mgr {
			continue
		}
		for _, b := range s.blocks {
			if b.Name == mem {
				return b, nil
			}
		}
	}
	return resource.MemBlock{}, fmt.Errorf("resource: program %q has no memory %q", program, mem)
}

// RPBEntries counts a linked program's installed entries per RPB of this
// compiler's switch — the entries it holds reserved there. It is nil for
// an unlinked program or one holding none.
func (c *Compiler) RPBEntries(name string) map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	lp := c.linked[name]
	if lp == nil {
		return nil
	}
	var out map[int]int
	for _, e := range lp.entries {
		if e.mgr == c.Mgr {
			if out == nil {
				out = make(map[int]int)
			}
			out[int(e.rpb)]++
		}
	}
	return out
}

// ProgramSummary is one linked program's listing row.
type ProgramSummary struct {
	Name      string
	ProgramID uint16
	Depths    int
	Entries   int
	MemWords  uint32
	Passes    int
}

// Summaries lists the linked programs sorted by name. Each row is copied
// under the compiler lock, which case updates, deferred init installs and
// renames hold while they change a program's name and entry count.
func (c *Compiler) Summaries() []ProgramSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProgramSummary, 0, len(c.linked))
	for _, lp := range c.linked {
		if lp == nil {
			continue
		}
		out = append(out, ProgramSummary{
			Name:      lp.Name,
			ProgramID: lp.ProgramID,
			Depths:    lp.TP.L(),
			Entries:   lp.Stats.EntryCount,
			MemWords:  lp.Stats.MemWords,
			Passes:    lp.Alloc.MaxPass() + 1,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Programs lists linked program names in sorted order.
func (c *Compiler) Programs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.linked))
	for n, lp := range c.linked {
		if lp != nil {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
