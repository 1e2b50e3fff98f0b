package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"p4runpro/internal/dataplane"
	"p4runpro/internal/faults"
	"p4runpro/internal/lang"
	"p4runpro/internal/obs"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
)

// mixedDraw is the all-mixed program draw (§6.2) in seeded order, every run
// of 15 consecutive instances a shuffle of the 15 Table 1 programs — the
// order the repo benchmark fills a switch in.
func mixedDraw(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed * 1009))
	all := programs.All()
	var out []string
	for len(out) < n {
		for _, k := range rng.Perm(len(all)) {
			_, src := programs.Instantiate(all[k], len(out), programs.DefaultParams())
			out = append(out, src)
		}
	}
	return out[:n]
}

// TestFillNeverTruncates fills a default switch with the mixed draw until
// the first refusal: every search must prove its answer well inside the node
// limit, so no placement is a node-limit incumbent. hh_1087 must link: its
// only placements put two depths on one physical RPB whose entries fit
// them together, which a per-depth model solved again with one value
// forbidden refused.
func TestFillNeverTruncates(t *testing.T) {
	const maxNodes = 20_000
	_, c := newStack(t)
	linked := 0
	for _, src := range mixedDraw(1, 1500) {
		lps, err := c.Link(context.Background(), src)
		if err != nil {
			var refusal *AllocError
			if !errors.As(err, &refusal) {
				t.Fatalf("after %d programs: %v", linked, err)
			}
			break
		}
		st := lps[0].Stats.Solver
		if !st.Complete || st.Nodes > maxNodes {
			t.Fatalf("%s: solver stats %+v, want complete within %d nodes", lps[0].Name, st, maxNodes)
		}
		linked++
	}
	if linked < 1000 {
		t.Fatalf("fill refused after %d programs, want a full switch (>= 1000)", linked)
	}
	if _, ok := c.Linked("hh_1087"); !ok {
		t.Fatalf("fill refused after %d programs, before hh_1087", linked)
	}
}

// TestAllocateSumsSharedSlot: a four-depth program on a nearly full switch
// where every RPB with room holds one entry. The first pass fits the memory
// access at RPB 3 only, so the forwarding depth recirculates, and the
// per-depth optimum (1 3 5 23) puts two depths on RPB 1. Allocate must
// return the optimum of an enumeration that sums each RPB's depths; solving
// again with depth 1's value forbidden found no placement at all.
func TestAllocateSumsSharedSlot(t *testing.T) {
	_, c := newStack(t)
	cfg := rmt.DefaultConfig()
	room := map[resource.RPBID]bool{1: true, 3: true, 5: true, 15: true}
	var filler []resource.MemBlock
	for rpb := resource.RPBID(1); int(rpb) <= c.Plane.M; rpb++ {
		n := cfg.TableCapacity
		if room[rpb] {
			n--
		}
		if err := c.Mgr.Reserve(rpb, n); err != nil {
			t.Fatal(err)
		}
		if rpb != 3 {
			filler = append(filler, resource.MemBlock{Name: fmt.Sprint(rpb), RPB: rpb, Size: uint32(cfg.MemoryWords)})
		}
	}
	if err := c.Mgr.Commit(filler); err != nil {
		t.Fatal(err)
	}
	f, err := lang.ParseFile(`@ mm 256
program shared(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    MEMREAD(mm);
    LOADI(sar, 1);
    FORWARD(1);
}`)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := lang.Translate(f.Programs[0], f.Memories)
	if err != nil {
		t.Fatal(err)
	}
	want := enumeratePlacement(c, tp)
	if fmt.Sprint(want) != "[1 3 15 27]" {
		t.Fatalf("enumeration found %v, the case is not the one described", want)
	}
	res, err := c.Allocate(tp)
	if err != nil {
		t.Fatalf("Allocate: %v, want %v", err, want)
	}
	var got []int
	for _, pl := range res.Placements {
		got = append(got, pl.Logical)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Allocate placed %v, enumeration's optimum is %v", got, want)
	}
}

// enumeratePlacement tries every strictly increasing placement of tp on
// c's switch and returns the lexicographically first f1 optimum under
// constraints (2)-(5), with the entries and first-accessed memory of the
// depths sharing a physical RPB summed; nil when none exists.
func enumeratePlacement(c *Compiler, tp *lang.TProgram) []int {
	m, n, hi := c.Plane.M, c.Plane.N, c.Plane.M*(c.Opt.MaxRecirc+1)
	first := tp.FirstAccessDepth()
	words := make(map[int]uint32) // depth -> words first accessed there
	for _, md := range tp.Memories {
		words[first[md.Name]] += md.Size
	}
	obj := c.Opt.objective()
	free := c.Mgr.Snapshot()
	at := func(rpb resource.RPBID) resource.Utilization { return free[rpb-1] }
	var best []int
	bestF := math.Inf(1)
	vals := make([]int, tp.L())
	var rec func(i, lo int)
	rec = func(i, lo int) {
		if i == len(vals) {
			entries := make(map[resource.RPBID]int)
			mem := make(map[resource.RPBID]uint32)
			for d, v := range vals {
				rpb, _ := logicalToPhysical(v, m)
				entries[rpb] += tp.EntriesAt(d + 1)
				mem[rpb] += words[d+1]
			}
			for rpb := range entries {
				if entries[rpb] > at(rpb).FreeEntries() || mem[rpb] > at(rpb).MemFree {
					return
				}
			}
			for _, l := range tp.MemLinks {
				if d := vals[l[1]-1] - vals[l[0]-1]; d%m != 0 || d/m > c.Opt.MaxRecirc {
					return
				}
			}
			if f := obj.Eval(vals); f < bestF {
				best, bestF = slices.Clone(vals), f
			}
			return
		}
		d := i + 1
	next:
		for v := lo; v <= hi; v++ {
			rpb, _ := logicalToPhysical(v, m)
			if tp.EntriesAt(d) > at(rpb).FreeEntries() || (tp.ForwardingAt(d) && int(rpb) > n) {
				continue
			}
			for _, md := range tp.Memories {
				if first[md.Name] == d && at(rpb).MaxBlock < md.Size {
					continue next
				}
			}
			vals[i] = v
			rec(i+1, v+1)
		}
	}
	rec(0, 1)
	return best
}

// TestAllocateReportsTruncation: a search the node limit stops is flagged in
// the link's solver stats and counted by p4runpro_solver_truncated_total.
func TestAllocateReportsTruncation(t *testing.T) {
	sw := rmt.New(rmt.DefaultConfig())
	pl, err := dataplane.Provision(sw)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.NodeLimit = 10 // cache has 10 depths: room for the first solution only
	c := NewCompiler(pl, opt)
	c.SetObserver(obs.NewRegistry())

	lp := linkCache(t, c)
	if lp.Stats.Solver.Complete {
		t.Errorf("solver stats %+v claim a proven optimum under a %d-node limit", lp.Stats.Solver, opt.NodeLimit)
	}
	if got := c.met.solver.Truncated.Value(); got != 1 {
		t.Errorf("p4runpro_solver_truncated_total = %d, want 1", got)
	}
}

// TestFullTableRefusedBeforeInstall: when the resource manager has RPB room
// but an init table is full, the link is refused naming that table, and no
// table sees an insert.
func TestFullTableRefusedBeforeInstall(t *testing.T) {
	cfg := rmt.DefaultConfig()
	cfg.TableCapacity = 16
	pl, err := dataplane.Provision(rmt.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(pl, DefaultOptions())
	src := func(i int) string {
		return fmt.Sprintf("program fwd%d(<hdr.udp.dst_port, %d, 0xffff>) { FORWARD(1); }", i, 1000+i)
	}
	for i := 0; i < cfg.TableCapacity; i++ {
		if _, err := c.Link(context.Background(), src(i)); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
	// A UDP filter has one init entry per compatible parse path.
	var full []string
	for _, path := range pkt.ParsePaths {
		if tbl, _ := pl.InitTable(path); tbl.Free() == 0 {
			full = append(full, "table "+tbl.Name+" ")
		}
	}
	if len(full) == 0 {
		t.Fatal("no init table filled up")
	}
	_, entriesBefore := c.Mgr.TotalUtilization()

	inserts, _ := faults.Lookup("rmt.table.insert")
	inserts.FailNth(1<<62, nil) // armed only to count hits
	t.Cleanup(inserts.Disarm)
	_, err = c.Link(context.Background(), src(cfg.TableCapacity))
	var refusal *AllocError
	if !errors.As(err, &refusal) || !slices.ContainsFunc(full, func(name string) bool { return strings.Contains(err.Error(), name) }) {
		t.Fatalf("err = %v, want an AllocError naming one of the full tables %q", err, full)
	}
	if n := inserts.Hits(); n != 0 {
		t.Errorf("%d table inserts before the refusal, want 0", n)
	}
	if _, after := c.Mgr.TotalUtilization(); after != entriesBefore {
		t.Errorf("entry utilization %f after refusal, %f before", after, entriesBefore)
	}
}

// residentBackground links n small programs owning /24s no benchmark
// packet carries: two in three forward, one in three count into a sketch —
// the resident set of the dense-churn workload.
func residentBackground(b *testing.B, c *Compiler, n int) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("10.%d.%d.0", 1+i/250, i%250)
		src := fmt.Sprintf("program bg%d(<hdr.ipv4.src, %s, 0xffffff00>) { FORWARD(%d); }", i, prefix, 4+rng.Intn(8))
		if rng.Intn(3) == 0 {
			src = sketchSource(fmt.Sprintf("bg%d", i), prefix, 64<<rng.Intn(3))
		}
		if _, err := c.Link(context.Background(), src); err != nil {
			b.Fatalf("background program %d: %v", i, err)
		}
	}
}

func sketchSource(name, prefix string, words int) string {
	return fmt.Sprintf("@ %s_m %d\nprogram %s(<hdr.ipv4.src, %s, 0xffffff00>) { LOADI(sar, 1); HASH_5_TUPLE_MEM(%s_m); MEMADD(%s_m); }",
		name, words, name, prefix, name, name)
}

// BenchmarkAllocate times one allocation (no install) per program depth and
// switch occupancy: fw (8 depths), a 3-primitive sketch, nc (17 depths,
// memory links) and calc, on an empty switch and beside ~1,000 resident
// programs. nodes/op is the solver's search effort.
func BenchmarkAllocate(b *testing.B) {
	progs := []struct{ name, src string }{
		{"fw", mustSource(b, "fw")},
		{"sketch", sketchSource("sk", "10.9.9.0", 256)},
		{"nc", mustSource(b, "nc")},
		{"calc", mustSource(b, "calc")},
	}
	for _, occ := range []struct {
		name     string
		resident int
	}{{"empty", 0}, {"resident1000", 1000}} {
		_, c := newStack(b)
		residentBackground(b, c, occ.resident)
		for _, p := range progs {
			f, err := lang.ParseFile(p.src)
			if err != nil {
				b.Fatal(err)
			}
			tp, err := lang.Translate(f.Programs[0], f.Memories)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(p.name+"/"+occ.name, func(b *testing.B) {
				var nodes int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := c.Allocate(tp)
					if err != nil {
						b.Fatal(err)
					}
					nodes += res.Stats.Nodes
				}
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			})
		}
	}
}

func mustSource(tb testing.TB, name string) string {
	spec, ok := programs.Get(name)
	if !ok {
		tb.Fatalf("no program %q", name)
	}
	return spec.DefaultSource()
}
