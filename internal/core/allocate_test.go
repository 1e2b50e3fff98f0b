package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"p4runpro/internal/dataplane"
	"p4runpro/internal/faults"
	"p4runpro/internal/lang"
	"p4runpro/internal/obs"
	"p4runpro/internal/programs"
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
// limit, so no placement is a node-limit incumbent.
func TestFillNeverTruncates(t *testing.T) {
	const maxNodes = 20_000
	_, c := newStack(t)
	linked := 0
	for _, src := range mixedDraw(1, 1500) {
		lps, err := c.Link(src)
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
		if _, err := c.Link(src(i)); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}
	// A UDP filter has one init entry per compatible parse path.
	var full []string
	for _, tbl := range pl.InitTables() {
		if tbl.Free() == 0 {
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
	_, err = c.Link(src(cfg.TableCapacity))
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
		if _, err := c.Link(src); err != nil {
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
