package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/traffic"
)

// Case-study constants (paper §6.4): programs deploy at 5 s; samples every
// 50 ms; the conventional workflow's reprovisioning keeps the switch dark
// for a few seconds after deployment starts.
const (
	deployAtMs        = 5000
	bucketMs          = 50
	reprovisionMs     = 3000
	fwdSource         = "program fwd(<hdr.ipv4.dst, 0, 0>) {\n    FORWARD(%d);\n}\n"
	defaultServerPort = 32
)

// deployFwd installs the basic forwarding program (the running state every
// case study starts from).
func deployFwd(ct *controlplane.Controller, port int) {
	if _, err := ct.Deploy(fmt.Sprintf(fwdSource, port)); err != nil {
		panic(fmt.Sprintf("deploy fwd: %v", err))
	}
}

// CaseStudyA is Figure 13(a): background RX rate with and without runtime
// deployment churn.
type CaseStudyA struct {
	Contrast traffic.Series // conventional switch, forwarding table only
	P4runpro traffic.Series // P4runpro under deploy/delete churn
	// Deployments and deletions performed during the run.
	Deployments, Deletions int
}

// churnSet lists the programs whose filters cannot match the 13(a)
// background mix (src 172.16/16, dst 10.200/16, standard ports), so their
// deployment exercises the control path without touching the traffic — the
// paper sets filtering rules "independently of the traffic".
var churnSet = []string{"cache", "nc", "dqacc", "calc", "hh", "cms", "bf", "sumax", "hll", "lb", "tunnel"}

// Figure13a replays the background mix on two switches: a contrast switch
// that only forwards, and a P4runpro switch where a random program is
// deployed or deleted every 0.5 s from t=5 s on.
func Figure13a(durationMs int) CaseStudyA {
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = durationMs
	cfg.SrcPrefix = [2]byte{172, 16}
	cfg.DstPrefix = [2]byte{10, 200}
	tr := traffic.Generate(cfg)

	// Contrast: plain forwarding, never touched.
	contrast := newController(defaultOptions())
	deployFwd(contrast, 2)
	resContrast := traffic.Replay(tr, contrast.SW, nil, bucketMs)

	// P4runpro: forwarding plus deployment churn.
	ct := newController(defaultOptions())
	deployFwd(ct, 2)
	rng := rand.New(rand.NewSource(4242))
	var sched []traffic.Action
	var live []string
	instance := 0
	study := CaseStudyA{}
	for at := float64(deployAtMs); at < float64(durationMs); at += 500 {
		sched = append(sched, traffic.Action{AtMs: at, Do: func() {
			if len(live) > 0 && rng.Intn(2) == 0 {
				idx := rng.Intn(len(live))
				name := live[idx]
				if _, err := ct.Revoke(name); err == nil {
					live = append(live[:idx:idx], live[idx+1:]...)
					study.Deletions++
				}
				return
			}
			spec, _ := programs.Get(churnSet[rng.Intn(len(churnSet))])
			name, src := programs.Instantiate(spec, instance, programs.DefaultParams())
			instance++
			if _, err := ct.Deploy(src); err == nil {
				live = append(live, name)
				study.Deployments++
			}
		}})
	}
	resOurs := traffic.Replay(tr, ct.SW, sched, bucketMs)

	study.Contrast = resContrast.Forwarded
	study.P4runpro = resOurs.Forwarded
	return study
}

// CaseStudyB is Figure 13(b): the in-network cache deployed at runtime
// versus as a conventional P4 program.
type CaseStudyB struct {
	P4runpro     traffic.Series // RX rate at the server port
	Conventional traffic.Series
	// Post-activation steady-state RX (paper: 40 Mbps at hit rate 0.6).
	OursSteadyMbps, RefSteadyMbps float64
	HitRateOurs, HitRateRef       float64
}

// Figure13b replays the cache workload (hit rate 0.6 over 8 cached keys)
// against both implementations, deploying at 5 s.
func Figure13b(durationMs int) CaseStudyB {
	ccfg := traffic.DefaultCacheConfig()
	ccfg.DurationMs = durationMs
	tr := traffic.GenerateCache(ccfg)

	// P4runpro: fwd to the server port, cache linked at 5 s with 8 keys
	// (16 elastic case blocks).
	ct := newController(defaultOptions())
	deployFwd(ct, defaultServerPort)
	spec, _ := programs.Get("cache")
	sched := []traffic.Action{{AtMs: deployAtMs, Do: func() {
		src := spec.Source("cache", programs.Params{MemWords: 256, Elastic: 2 * ccfg.CachedKeys})
		if _, err := ct.Deploy(src); err != nil {
			panic(fmt.Sprintf("deploy cache: %v", err))
		}
	}}}
	resOurs := traffic.Replay(tr, ct.SW, sched, bucketMs)

	// Conventional: same cached key set, with reprovisioning downtime.
	cached := make([]uint64, ccfg.CachedKeys)
	for i := range cached {
		cached[i] = 0x8888 + uint64(i)
	}
	ref := newRefCache(defaultServerPort, defaultServerPort, cached)
	refSched := []traffic.Action{
		{AtMs: deployAtMs, Do: ref.BeginReprovision},
		{AtMs: deployAtMs + reprovisionMs, Do: ref.FinishReprovision},
	}
	resRef := traffic.Replay(tr, traffic.PerPacket(ref.Inject), refSched, bucketMs)

	steadyFrom := float64(deployAtMs + reprovisionMs + 1000)
	end := float64(durationMs)
	study := CaseStudyB{
		P4runpro:       resOurs.Forwarded,
		Conventional:   resRef.Forwarded,
		OursSteadyMbps: resOurs.Forwarded.Mean(steadyFrom, end),
		RefSteadyMbps:  resRef.Forwarded.Mean(steadyFrom, end),
	}
	oursRefl := resOurs.Reflected.Mean(steadyFrom, end)
	refRefl := resRef.Reflected.Mean(steadyFrom, end)
	study.HitRateOurs = oursRefl / (oursRefl + study.OursSteadyMbps)
	study.HitRateRef = refRefl / (refRefl + study.RefSteadyMbps)
	return study
}

// CaseStudyC is Figure 13(c): the stateless load balancer's load-imbalance
// rate |rx1-rx2|/total over time.
type CaseStudyC struct {
	P4runpro     traffic.Series
	Conventional traffic.Series
	// Mean steady-state imbalance for both systems.
	OursMean, RefMean float64
}

// Figure13c deploys lb at 5 s with DIPs spread over two ports and compares
// imbalance against the conventional program.
func Figure13c(durationMs int) CaseStudyC {
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = durationMs
	cfg.HeavyFlows = 0               // even flow sizes isolate the balancing behaviour
	cfg.DstPrefix = [2]byte{10, 0}   // lb filters dst 10.0.0.0/16
	cfg.SrcPrefix = [2]byte{172, 16} // keep src away from other filters
	tr := traffic.Generate(cfg)

	buckets := uint32(256)
	dips := []uint32{pkt.IP(10, 8, 0, 1), pkt.IP(10, 8, 0, 2)}
	ports := []int{0, 1}

	ct := newController(defaultOptions())
	deployFwd(ct, 2)
	spec, _ := programs.Get("lb")
	sched := []traffic.Action{{AtMs: deployAtMs, Do: func() {
		src := spec.Source("lb", programs.Params{MemWords: buckets, Elastic: 2})
		if _, err := ct.Deploy(src); err != nil {
			panic(fmt.Sprintf("deploy lb: %v", err))
		}
		for i := uint32(0); i < buckets; i++ {
			if err := ct.WriteMemory(context.Background(), "lb", "dip_pool", i, dips[i%2]); err != nil {
				panic(err)
			}
			if err := ct.WriteMemory(context.Background(), "lb", "port_pool", i, i%2); err != nil {
				panic(err)
			}
		}
	}}}
	resOurs := traffic.Replay(tr, ct.SW, sched, bucketMs)

	ref := newRefLB(2, buckets, ports, dips)
	refSched := []traffic.Action{
		{AtMs: deployAtMs, Do: ref.BeginReprovision},
		{AtMs: deployAtMs + reprovisionMs, Do: ref.FinishReprovision},
	}
	resRef := traffic.Replay(tr, traffic.PerPacket(ref.Inject), refSched, bucketMs)

	study := CaseStudyC{
		P4runpro:     imbalance(resOurs, ports[0], ports[1]),
		Conventional: imbalance(resRef, ports[0], ports[1]),
	}
	steadyFrom := float64(deployAtMs + reprovisionMs + 1000)
	study.OursMean = study.P4runpro.Mean(steadyFrom, float64(durationMs))
	study.RefMean = study.Conventional.Mean(steadyFrom, float64(durationMs))
	return study
}

func imbalance(res *traffic.Result, p1, p2 int) traffic.Series {
	s1, ok1 := res.PerPort[p1]
	s2, ok2 := res.PerPort[p2]
	n := 0
	if ok1 {
		n = len(s1.Values)
	} else if ok2 {
		n = len(s2.Values)
	}
	out := traffic.Series{BucketMs: bucketMs, Values: make([]float64, n)}
	for i := 0; i < n; i++ {
		var a, b float64
		if ok1 {
			a = s1.Values[i]
		}
		if ok2 {
			b = s2.Values[i]
		}
		if a+b > 0 {
			out.Values[i] = abs(a-b) / (a + b)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// CaseStudyD is Figure 13(d): heavy-hitter F1 score over time, the
// mask-step truncated hash versus the native-width conventional program.
type CaseStudyD struct {
	P4runpro     traffic.Series // F1 per bucket (cumulative reports)
	Conventional traffic.Series
	FinalF1Ours  float64
	FinalF1Ref   float64
	TruthSize    int
}

// Figure13d replays a trace with 100 ground-truth heavy flows, deploys hh
// at 5 s (memory and threshold 1,024 as in the paper), and scores the
// cumulative reported set against flows exceeding the threshold after
// deployment.
func Figure13d(durationMs int) CaseStudyD {
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = durationMs
	cfg.MiceLifetimeMs = 1500   // campus mice are short-lived (see traffic.Config)
	tr := traffic.Generate(cfg) // src 10.0/16 matches hh's filter

	// Ground truth: flows with more than 1,024 packets after deployment.
	truth := make(map[pkt.FiveTuple]bool)
	counts := make(map[pkt.FiveTuple]int)
	for _, ev := range tr.Events {
		if ev.AtMs >= deployAtMs {
			counts[ev.Pkt.FiveTuple()]++
		}
	}
	for f, n := range counts {
		if n > 1024 {
			truth[f] = true
		}
	}

	buckets := durationMs / bucketMs
	oursF1 := traffic.Series{BucketMs: bucketMs, Values: make([]float64, buckets)}
	refF1 := traffic.Series{BucketMs: bucketMs, Values: make([]float64, buckets)}

	ct := newController(defaultOptions())
	deployFwd(ct, 2)
	spec, _ := programs.Get("hh")
	sched := []traffic.Action{{AtMs: deployAtMs, Do: func() {
		src := spec.Source("hh", programs.Params{MemWords: 1024, Elastic: 2})
		if _, err := ct.Deploy(src); err != nil {
			panic(fmt.Sprintf("deploy hh: %v", err))
		}
	}}}
	reportedOurs := make(map[pkt.FiveTuple]bool)
	traffic.Replay(tr, ct.SW, sched, bucketMs, func(b int) {
		for _, p := range ct.SW.DrainCPU() {
			reportedOurs[p.FiveTuple()] = true
		}
		if b < len(oursF1.Values) {
			oursF1.Values[b] = traffic.F1(reportedOurs, truth)
		}
	})

	ref := newRefHH(2, 1024, 1024)
	refSched := []traffic.Action{
		{AtMs: deployAtMs, Do: ref.BeginReprovision},
		{AtMs: deployAtMs + reprovisionMs, Do: ref.FinishReprovision},
	}
	traffic.Replay(tr, traffic.PerPacket(ref.Inject), refSched, bucketMs, func(b int) {
		if b < len(refF1.Values) {
			refF1.Values[b] = traffic.F1(ref.reported, truth)
		}
	})

	return CaseStudyD{
		P4runpro:     oursF1,
		Conventional: refF1,
		FinalF1Ours:  traffic.F1(reportedOurs, truth),
		FinalF1Ref:   traffic.F1(ref.reported, truth),
		TruthSize:    len(truth),
	}
}
