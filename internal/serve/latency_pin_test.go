package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// pinProfile is a training profile whose iteration latency shrinks with
// the per-trial GPU count.
type pinProfile struct{}

func (pinProfile) IterDist(gpus int) stats.Dist {
	return stats.Normal{Mu: 40 / float64(gpus), Sigma: 3 / float64(gpus)}
}

// readyTimes requests n instances at time zero from a provider on a
// fresh clock and a stream seeded with seed, runs the clock dry and
// returns each instance's ReadyAt in request order as float bits.
func readyTimes(t *testing.T, oh cloud.Overheads, seed uint64, n int) []string {
	t.Helper()
	cp := cloud.PaperProfile(0)
	cp.Overheads = oh
	clock := vclock.New()
	p, err := cloud.NewProvider(clock, stats.NewRNG(seed), cp)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]*cloud.Instance, n)
	for i := range ins {
		ins[i] = p.Request(cp.Instance, nil)
	}
	for clock.Step() {
	}
	out := make([]string, n)
	for i, in := range ins {
		if in.State != cloud.Ready {
			t.Fatalf("instance %d is %v after the clock ran dry", i, in.State)
		}
		out[i] = fmt.Sprintf("%x", math.Float64bits(float64(in.ReadyAt)))
	}
	return out
}

// TestServedLatencyPins pins, for every latency type a submission can
// name and for a left-out (nil) one, what the provider draws and what
// the Simulator predicts with it as both provisioning latencies: the
// first 16 queue delays (instances requested at time zero with no init
// latency are ready at their queue draw) and, separately, the first 16
// init latencies (no queue delay), each on a seeded stream; the float
// bits of Simulator.Estimate for one fixed plan whose stages grow the
// cluster by one and by two instances and queue TRAINs in waves; and
// whether cloud.Profile.Validate and sim.Init accept the latency. The
// expected values were taken from the implementation that compiled each
// latency to an opcode, so they hold the one that samples and takes
// moments from the distribution itself to the same bits.
func TestServedLatencyPins(t *testing.T) {
	sp, err := spec.New(spec.Stage{Trials: 8, Iters: 2}, spec.Stage{Trials: 4, Iters: 4}, spec.Stage{Trials: 2, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan := sim.NewPlan(4, 8, 16)
	cases := []struct {
		name            string
		spec            *DistSpec
		queue, init     string // the 16 draws' float bits, space-separated
		estimate        string // JCT, JCTStd, Cost, CostStd float bits
		validate, simOK bool
	}{
		{
			name:     "deterministic",
			spec:     &DistSpec{Type: "deterministic", Value: 12},
			queue:    "4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000",
			init:     "4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000 4028000000000000",
			estimate: "40769e893e8b2ed7 4012e619e9605f99 4001201dac49c113 3f92381c5bc2f35c",
			validate: true, simOK: true,
		},
		{
			name:     "normal",
			spec:     &DistSpec{Type: "normal", Mean: 20, Std: 6},
			queue:    "402c01a3505b97c7 4038b56881e9d440 40351651712182d3 403c747283ab5984 402d7c21ce229355 40402c6a5fb198a5 403a93fced4a30df 403411e4318e1144 403d09563a535ae3 403d9c51fca7140a 402f48dc5a7e3230 4031888089dbd6dc 4040ffd0fa0c0483 40332f844d33ee64 403397aa4f6328c6 40345643f1189e03",
			init:     "402b7e4e16c5b1b8 40330acd1d170f6e 4029c75bdecd796b 4017293a7724e404 4032a6c085011b9b 403ff0a1536cf609 40404e0f630ec69b 403817c1ad488850 403c1dda18f3ebc8 403348844fbaef5c 4036c615e56ab528 4033d7fc89c8653b 40268b47f3e4867b 40280d52c1cb2166 4024084cfad4c2c8 40334a03ec975187",
			estimate: "4079d4f6862e69d0 402e145617a8d7a1 40034d16801455b9 3fb07894a339cf3f",
			validate: true, simOK: true,
		},
		{
			name:     "lognormal",
			spec:     &DistSpec{Type: "lognormal", Mean: 15, Std: 9},
			queue:    "402f0e9269b8e0ea 403c03e356d3f5ed 40393d145723cb27 4020a46e6e8c48c1 4029982b0decf858 4026522cbe7dce3f 4030880d6084873f 4028c2ab58658387 401d2202e6a639f5 4032219b6712664a 403352fd21ee147c 402f40954c8f2d94 402397cc4851ac34 40326ab82749c8ad 403780e9c1528f53 40266ea9f4db68b5",
			init:     "401e42a42373a482 402df77cefb7658b 4031cf16495a96c4 40235079f55291fb 403c1c2d61efd0c5 4030c3754736f40b 40273825c8119acf 4003316f6447684d 4029e1694dff82ef 402fde5f76008a67 4016843174903a05 403d36ab9446b8a5 4031b75db86982e1 40341f92a6f44f9c 4029f7cd812257e0 4025f1a6927b0515",
			estimate: "4078102d2a00074d 4035eeb3095e4998 40023c60c712911d 3fb716093e94f1cd",
			validate: true, simOK: true,
		},
		{
			name:     "exponential",
			spec:     &DistSpec{Type: "exponential", Mean: 10},
			queue:    "4011057c3f2f44b8 403461b0e792f2a4 4003f449417d1f3e 40013a44b9c987d7 3feb5c38d636b130 4021e7bc4bfab5de 4017d9947df30390 401b24219d326325 4001e19ec89caed9 40210713b41e5bed 4011dbc504b4ead1 40215e58fc81dcd0 400d604cac0a9bb6 4025b685fbfeecf7 4020054eec73e357 4007de1d1ff371b6",
			init:     "400487b7ca0bc67d 40251db68735c104 401de4547bd6b3a7 4027b4ba3cd36d9a 4007294643e31eae 4001aafb90a0bc8b 401538e12abddf19 40319501bf539cb4 4030e98271964cfa 4022bb1cdbfb809e 3fc40a9600c6be30 4021b9bba3841559 400fad845461e5ac 40066487c5179c0b 4032ce4cfc18b4e5 3fb16a86a223348a",
			estimate: "4076393f609b3bcc 403842fd9c9f4dd2 400117d32fef3da2 3fb8c20702ea92cf",
			validate: true, simOK: true,
		},
		{
			name:     "uniform",
			spec:     &DistSpec{Type: "uniform", Lo: 4, Hi: 30},
			queue:    "4037cc25a4a6efaf 403549257db29ef9 4037da282e974474 4031aff47cb9bd76 401ec7dca4df0459 4011a068d8c4ef92 402edfe5f95f2149 403a9934ff87c50f 403b55fda8a0ee60 403989ca618e0847 40352ce9d94870d7 402a7a66548c0e1a 40341e06e06d2afc 4010651bb1165c50 4037803dd471707a 402f094de405085e",
			init:     "40185cebd7e08a95 4027020f8445a362 4039a181dd4d39c7 40276df8ec00cdea 4029f19be5682132 4028880ce9ab0f1b 402f4c8350f01e4d 401f9e0a6d8038ba 4029cb544b1f1f9d 4026764a9fc461d0 4020e6cd35f40bf4 403b10c40aba4664 403c7afcc4916918 403700d92de496e8 401dc3636e2639f4 4027896f9792707a",
			estimate: "4078c29ebd925ea6 403279b6da045053 4002a2aa1be92700 3fb3ae48f628dd80",
			validate: true, simOK: true,
		},
		{
			name:     "pareto",
			spec:     &DistSpec{Type: "pareto", Scale: 6, Alpha: 2.5},
			queue:    "40207d028bab6e63 40190f9e36ae0b9f 4018f0b23ad6d4cb 401d1e7f10235c2d 40193d64a0657e95 4020d775dd1b1bde 40183522f4ec97e9 4031c11008fdc3e1 401b7bd3107ca2ed 40193297e12afe02 401c6628935a0f90 401dd7fca25b8c99 402f667ce22f3dc8 401f71645afdb3bc 4032a32bb4e1355d 401e5ba19a5732f4",
			init:     "401d3f8111925ea7 4021da5dfd5e2135 401ccc2156a2248d 40185903508aced2 401ac67c4893c1ed 401e2af151173252 40206d1ca4c4b442 402507735b230182 401b3fa9466c0d9c 401ea3b94329d753 401b03a4e17519e7 4022ee0049422255 401938277704a7d9 4024af1b32b531b7 40210152db67e689 401a0df48cfd89d7",
			estimate: "40762fabc065a2a3 4035cd8d1ee469cc 400108d513d6fc74 3fb61b7b6b3385c5",
			validate: true, simOK: true,
		},
		{
			name:     "nil",
			queue:    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
			init:     "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
			estimate: "",
			validate: true, simOK: false,
		},
	}
	for i, c := range cases {
		var d stats.Dist
		if c.spec != nil {
			if d, err = c.spec.Dist(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		seed := uint64(100 + i)
		queue := strings.Join(readyTimes(t, cloud.Overheads{QueueDelay: d}, seed, 16), " ")
		init := strings.Join(readyTimes(t, cloud.Overheads{InitLatency: d}, seed+50, 16), " ")
		cp := cloud.PaperProfile(0)
		cp.Overheads = cloud.Overheads{QueueDelay: d, InitLatency: d}
		validate := cp.Validate() == nil
		var estimate string
		sm, err := sim.New(sp, pinProfile{}, cp, 0, nil)
		simOK := err == nil
		if simOK {
			est, err := sm.Estimate(plan)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			estimate = fmt.Sprintf("%x %x %x %x", math.Float64bits(est.JCT), math.Float64bits(est.JCTStd),
				math.Float64bits(est.Cost), math.Float64bits(est.CostStd))
		}
		if queue != c.queue || init != c.init || estimate != c.estimate || validate != c.validate || simOK != c.simOK {
			t.Errorf("%s:\n queue    %q\n init     %q\n estimate %q\n validate %v sim.Init %v\nwant\n queue    %q\n init     %q\n estimate %q\n validate %v sim.Init %v",
				c.name, queue, init, estimate, validate, simOK, c.queue, c.init, c.estimate, c.validate, c.simOK)
		}
	}
}
