package main

import (
	"fmt"
	"math/rand"

	"p4runpro/internal/programs"
	"p4runpro/internal/traffic"
	"p4runpro/internal/wire"
)

// Every input is made here from the seed; the program under test only ever
// sees the generated sources, packets and memory writes.

type program struct{ name, src string }

// drawPrograms is the paper's all-mixed draw (§6.2) with the mix held fixed:
// n instances in seeded order, every run of 15 consecutive ones a shuffle of
// the 15 Table 1 programs. A uniform draw would let the seed decide how many
// of the two solver-heavy programs (nc, calc) a fill meets, and with it every
// latency percentile; shuffled strata leave the seed only the order.
func drawPrograms(seed int64, n int) []program {
	rng := rand.New(rand.NewSource(seed * 1009))
	all := programs.All()
	out := make([]program, 0, n+len(all))
	for len(out) < n {
		for _, k := range rng.Perm(len(all)) {
			name, src := programs.Instantiate(all[k], len(out), programs.DefaultParams())
			out = append(out, program{name, src})
		}
	}
	return out[:n]
}

// slotPrefix gives program slot s its own /24 under 10.(1+s/250).
func slotPrefix(s int) string { return fmt.Sprintf("10.%d.%d.0", 1+s/250, s%250) }

func forwarder(name, prefix string, port int) program {
	return program{name, fmt.Sprintf(
		"program %s(<hdr.ipv4.src, %s, 0xffffff00>) { FORWARD(%d); }", name, prefix, port)}
}

func sketch(name, prefix string, words int) program {
	return program{name, fmt.Sprintf(
		"@ %s_m %d\nprogram %s(<hdr.ipv4.src, %s, 0xffffff00>) { LOADI(sar, 1); HASH_5_TUPLE_MEM(%s_m); MEMADD(%s_m); }",
		name, words, name, prefix, name, name)}
}

// backgroundPrograms fills a switch with n small programs that own prefixes
// no generated packet carries: two in three forward, one in three counts
// into a sketch, in seeded order.
func backgroundPrograms(seed int64, n int) []program {
	rng := rand.New(rand.NewSource(seed*1013 + 1))
	out := make([]program, n)
	for i, slot := range rng.Perm(n) {
		name := fmt.Sprintf("bg%d", i)
		if rng.Intn(3) == 0 {
			out[i] = sketch(name, slotPrefix(slot), 64<<rng.Intn(3))
		} else {
			out[i] = forwarder(name, slotPrefix(slot), 4+rng.Intn(8))
		}
	}
	return out
}

// churnPrograms are the cms-style instances switch_dense_churn deploys and
// revokes, one per schedule slot, reused round-robin.
func churnPrograms(seed int64, n int) []program {
	rng := rand.New(rand.NewSource(seed*1019 + 2))
	out := make([]program, n)
	for i := range out {
		out[i] = sketch(fmt.Sprintf("churn%d", i), fmt.Sprintf("10.9.%d.0", rng.Intn(250)), 64<<rng.Intn(3))
	}
	return out
}

// probeSource is the forwarder that owns every generated packet (the trace
// draws its sources from 10.0/16).
func probeSource(port int) string {
	return fmt.Sprintf("program probe(<hdr.ipv4.src, 10.0.0.0, 0xffff0000>) { FORWARD(%d); }", port)
}

// tinyForwarders is one deploy.batch of bulk_wire.
func tinyForwarders(seed int64, n int) []program {
	rng := rand.New(rand.NewSource(seed*1021 + 3))
	out := make([]program, n)
	for i, slot := range rng.Perm(n) {
		out[i] = forwarder(fmt.Sprintf("tiny%d", i), slotPrefix(slot), 2+rng.Intn(30))
	}
	return out
}

// writeBatch draws n distinct addresses of a words-long block with random
// values.
func writeBatch(rng *rand.Rand, words, n int) []wire.MemWriteEntry {
	out := make([]wire.MemWriteEntry, n)
	for i, addr := range rng.Perm(words)[:n] {
		out[i] = wire.MemWriteEntry{Addr: uint32(addr), Value: rng.Uint32()}
	}
	return out
}

// makeTrace generates the seeded 4,096-flow, 64-1500 B packet trace; dst
// overrides the destination /16 when non-zero.
func makeTrace(seed int64, ms int, dst [2]byte) *traffic.Trace {
	tc := traffic.DefaultConfig()
	tc.Seed = seed
	tc.Flows = 4096
	tc.DurationMs = ms
	tc.MinPkt = 64
	tc.MaxPkt = 1500
	tc.DstPrefix = dst
	return traffic.Generate(tc)
}
