package core

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/lang"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
)

// probe sends a cache-read packet and classifies the observed behaviour.
type behaviour int

const (
	behaviourNone behaviour = iota // no program matched
	behaviourOld                   // complete old-program behaviour
	behaviourNew                   // complete new-program behaviour
	behaviourMix                   // inconsistent intermediate state
)

// TestConsistentAddition installs a program the way linkOne does, one
// batch of batches(plan, false) at a time, and probes the data plane between
// batches: a cache-hit packet must observe either no program at all or the
// complete program — never a partial one — and the program may appear only
// with an initialization-block batch (paper §4.3, Figure 6).
func TestConsistentAddition(t *testing.T) {
	sw, c := newStack(t)

	probe := func() behaviour {
		p := pkt.NewNC(ncFlow(), pkt.NCRead, 0x8888, 0)
		res := sw.Inject(p, 1)
		switch res.Verdict {
		case rmt.VerdictNoDecision:
			return behaviourNone
		case rmt.VerdictReflected:
			return behaviourNew // full read path incl. RETURN executed
		}
		return behaviourMix
	}

	// Stage as linkOne does, so the batches can be applied one by one.
	file, err := lang.ParseFile(cacheSrc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.stage(context.Background(), file.Programs[0], file.Memories, time.Time{}, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.release()
	tp, plan := st.lp.TP, st.plan
	if b := probe(); b != behaviourNone {
		t.Fatalf("before install: behaviour %d, want none", b)
	}
	live := false
	bs := batches(plan, false)
	tables := make(map[*rmt.Table]bool)
	for _, pe := range plan {
		tables[pe.table] = true
	}
	if len(bs) != len(tables) {
		t.Fatalf("%d batches for %d tables, want one each", len(bs), len(tables))
	}
	for i, idx := range bs {
		b := pick(plan, idx)
		if _, err := install(tp.Name, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		switch got := probe(); {
		case got == behaviourNone && !live:
		case got == behaviourNew:
			if !live && b[0].kind != kindInit {
				t.Fatalf("batch %d/%d (%s, kind %d) made the program visible; only the init block may", i+1, len(bs), b[0].table.Name, b[0].kind)
			}
			live = true
		default:
			t.Fatalf("after batch %d/%d (%s, kind %d): behaviour %d (live before: %v)", i+1, len(bs), b[0].table.Name, b[0].kind, got, live)
		}
	}
	if !live {
		t.Fatal("every batch installed, program not visible")
	}
}

// pick returns the entries at idx, one batch of batches(entries, ...).
func pick[E any](entries []E, idx []int) []E {
	out := make([]E, len(idx))
	for i, j := range idx {
		out[i] = entries[j]
	}
	return out
}

// TestConsistentDeletion retires a program the way Revoke does, one batch
// of batches(entries, true) at a time, probing between batches: the program
// answers completely until an initialization-block batch disables its ID,
// after which every component stops at once, though their entries still
// physically exist.
func TestConsistentDeletion(t *testing.T) {
	sw, c := newStack(t)
	lp := linkCache(t, c)

	read := func() rmt.Verdict {
		return sw.Inject(pkt.NewNC(ncFlow(), pkt.NCRead, 0x8888, 0), 1).Verdict
	}
	if read() != rmt.VerdictReflected {
		t.Fatal("program not active before deletion")
	}
	stopped := false
	bs := batches(lp.entries, true)
	for i, idx := range bs {
		b := pick(lp.entries, idx)
		if err := retire(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		switch v := read(); {
		case v == rmt.VerdictReflected && !stopped:
		case v == rmt.VerdictNoDecision:
			if !stopped && b[0].kind != kindInit {
				t.Fatalf("batch %d/%d (%s, kind %d) stopped the program; only the init block may", i+1, len(bs), b[0].table.Name, b[0].kind)
			}
			stopped = true
		default:
			t.Fatalf("after batch %d/%d (%s, kind %d): verdict %v (stopped before: %v)", i+1, len(bs), b[0].table.Name, b[0].kind, v, stopped)
		}
	}
	if !stopped {
		t.Fatal("every batch retired, program still answers")
	}
}

// TestLinkInstallOrder fails the nth table insert of hll's link for every n
// in turn and reads the failing table off the error: the link reaches the
// init tables only after every RPB and recirculation entry, and writes each
// table's entries as one batch, so a table's n values are one run.
func TestLinkInstallOrder(t *testing.T) {
	pt, ok := faults.Lookup("rmt.table.insert")
	if !ok {
		t.Fatal("rmt.table.insert not registered")
	}
	defer faults.DisarmAll()
	spec, _ := programs.Get("hll")
	src := spec.DefaultSource()
	_, c := newStack(t)

	pt.FailNth(1<<62, nil)
	if _, err := c.Link(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	hits := int(pt.Hits())
	faults.DisarmAll()
	if _, err := c.Revoke("hll"); err != nil {
		t.Fatal(err)
	}

	failing := regexp.MustCompile(`table (\S+): insert: `)
	runs := make(map[string][]int)
	firstInit := 0
	for n := 1; n <= hits; n++ {
		pt.FailNth(uint64(n), nil)
		_, err := c.Link(context.Background(), src)
		faults.DisarmAll()
		m := failing.FindStringSubmatch(fmt.Sprint(err))
		if m == nil {
			t.Fatalf("n=%d: link error %v names no failing table", n, err)
		}
		switch init := strings.HasPrefix(m[1], "init_"); {
		case init && firstInit == 0:
			firstInit = n
		case !init && firstInit != 0:
			t.Fatalf("n=%d: %s written after the init tables (from n=%d)", n, m[1], firstInit)
		}
		runs[m[1]] = append(runs[m[1]], n)
	}
	if firstInit == 0 {
		t.Fatalf("no init table among %d inserts", hits)
	}
	for name, ns := range runs {
		if ns[len(ns)-1]-ns[0]+1 != len(ns) {
			t.Errorf("%s written at inserts %v, not one run", name, ns)
		}
	}
	if len(c.Programs()) != 0 {
		t.Fatalf("failed links left %v linked", c.Programs())
	}
}
