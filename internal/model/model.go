package model

import (
	"fmt"
	"math"

	"repro/internal/searchspace"
	"repro/internal/stats"
)

// Dataset describes the training data only in the terms the system cares
// about: its size (for data-ingress pricing, Figure 10) and sample count
// (for converting batch sizes to epochs when reporting schedules).
type Dataset struct {
	Name    string
	SizeGB  float64
	Samples int
}

// Standard datasets from the evaluation.
var (
	CIFAR10  = Dataset{Name: "cifar10", SizeGB: 0.15, Samples: 50000}
	CIFAR100 = Dataset{Name: "cifar100", SizeGB: 0.15, Samples: 50000}
	ImageNet = Dataset{Name: "imagenet", SizeGB: 150, Samples: 1281167}
	RTE      = Dataset{Name: "rte", SizeGB: 0.01, Samples: 2490}
)

// CurveParams parameterize the simulated learning curve of a model/dataset
// pair. Final accuracy for a configuration is
//
//	asymptote(cfg) = AccFloor + (AccCeil−AccFloor)·quality(cfg)
//
// where quality ∈ (0,1] peaks when the log learning rate hits OptLogLR and
// decays as a Gaussian with width LRWidth (plus smaller momentum and
// weight-decay terms). Training progress follows a saturating exponential
// acc(t) = asymptote·(1 − exp(−t/Tau)), the canonical diminishing-returns
// shape (§2), with per-observation Gaussian noise of NoiseStd — making
// intermediate metrics imperfect predictors, exactly the property that
// forces SHA to keep multiple candidates alive.
type CurveParams struct {
	AccFloor float64 // accuracy of a hopeless configuration at convergence
	AccCeil  float64 // accuracy of the ideal configuration at convergence
	OptLogLR float64 // natural log of the best learning rate
	LRWidth  float64 // Gaussian width in log-lr space
	Tau      float64 // iterations to reach ~63% of the asymptote
	NoiseStd float64 // std of per-observation metric noise
}

// Model describes one tunable DL model: its compute profile and its
// learning behaviour.
type Model struct {
	// Name identifies the architecture, e.g. "resnet101".
	Name string
	// Dataset is the training set.
	Dataset Dataset
	// BaseBatch is the reference per-step effective batch size at which
	// BaseIterSeconds was measured.
	BaseBatch int
	// BaseIterSeconds is the mean single-GPU latency of one training
	// iteration at BaseBatch.
	BaseIterSeconds float64
	// IterNoiseStd is the std of per-iteration latency noise (stragglers
	// are produced by raising this).
	IterNoiseStd float64
	// Scaling is the model's communication profile.
	Scaling ScalingProfile
	// Curve parameterizes the simulated learning curve.
	Curve CurveParams
}

// Validate checks the model parameters.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: empty name")
	}
	if m.BaseBatch <= 0 {
		return fmt.Errorf("model %s: BaseBatch = %d", m.Name, m.BaseBatch)
	}
	if m.BaseIterSeconds <= 0 {
		return fmt.Errorf("model %s: BaseIterSeconds = %v", m.Name, m.BaseIterSeconds)
	}
	if m.IterNoiseStd < 0 {
		return fmt.Errorf("model %s: negative IterNoiseStd", m.Name)
	}
	if m.Curve.AccCeil <= m.Curve.AccFloor {
		return fmt.Errorf("model %s: AccCeil <= AccFloor", m.Name)
	}
	if m.Curve.Tau <= 0 || m.Curve.LRWidth <= 0 {
		return fmt.Errorf("model %s: non-positive Tau or LRWidth", m.Name)
	}
	return nil
}

// IterLatencyMean returns the expected seconds per training iteration at
// the given effective batch size, for a trial with gpus workers spanning
// nodes machines. Batch size is held constant across allocations (strong
// scaling, §3): a larger allocation splits the same batch, while a small
// allocation processes it via gradient accumulation — so single-GPU work
// grows linearly with batch and shrinks by the communication-discounted
// speedup.
func (m *Model) IterLatencyMean(batch, gpus, nodes int) float64 {
	if batch <= 0 {
		panic(fmt.Sprintf("model: batch %d", batch))
	}
	work := m.BaseIterSeconds * float64(batch) / float64(m.BaseBatch)
	return work / m.Scaling.Speedup(gpus, nodes)
}

// IterLatencyDist returns the latency distribution for one iteration under
// the same parameters. IterNoiseStd is the straggler σ at the reference
// point (BaseBatch, one co-located GPU); at other allocations it scales
// proportionally with the mean, so relative straggler severity is
// allocation independent.
func (m *Model) IterLatencyDist(batch, gpus, nodes int) stats.Dist {
	d, noisy := m.iterLatency(batch, gpus, nodes)
	if !noisy {
		return stats.Deterministic{Value: d.Mu}
	}
	return d
}

// SampleIterLatency draws one iteration latency from IterLatencyDist
// without boxing the distribution in an interface: the executor draws
// one per training iteration.
func (m *Model) SampleIterLatency(batch, gpus, nodes int, r *stats.RNG) float64 {
	d, noisy := m.iterLatency(batch, gpus, nodes)
	if !noisy {
		return d.Mu
	}
	return d.Sample(r)
}

// iterLatency returns the iteration latency distribution as a Normal, and
// whether it has any noise (without, it is the constant d.Mu).
func (m *Model) iterLatency(batch, gpus, nodes int) (d stats.Normal, noisy bool) {
	mean := m.IterLatencyMean(batch, gpus, nodes)
	if m.IterNoiseStd == 0 {
		return stats.Normal{Mu: mean}, false
	}
	return stats.Normal{Mu: mean, Sigma: m.IterNoiseStd * mean / m.BaseIterSeconds}, true
}

// quality maps a hyperparameter configuration to (0, 1]: 1 at the ideal
// configuration, decaying with log-lr distance and mild momentum /
// weight-decay effects. Configurations without the corresponding keys
// contribute neutral values.
func (c CurveParams) quality(cfg searchspace.Config) float64 {
	q := 1.0
	if lr, ok := cfg.Lookup("lr"); ok {
		if lr <= 0 {
			return 0.01
		}
		d := (math.Log(lr) - c.OptLogLR) / c.LRWidth
		q *= math.Exp(-d * d / 2)
	}
	if mom, ok := cfg.Lookup("momentum"); ok {
		d := (mom - 0.9) / 0.3
		q *= 1 - 0.1*d*d
	}
	if wd, ok := cfg.Lookup("weight_decay"); ok {
		if wd > 0 {
			d := (math.Log(wd) - math.Log(5e-4)) / 6
			q *= 1 - 0.1*d*d
		}
	}
	if dr, ok := cfg.Lookup("dropout"); ok {
		d := (dr - 0.1) / 0.5
		q *= 1 - 0.1*d*d
	}
	if q < 0.01 {
		q = 0.01
	}
	return q
}

// Asymptote returns the converged validation accuracy for cfg.
func (m *Model) Asymptote(cfg searchspace.Config) float64 {
	return m.Curve.AccFloor + (m.Curve.AccCeil-m.Curve.AccFloor)*m.Curve.quality(cfg)
}

// AccuracyAt returns the noiseless validation accuracy after cumIters
// training iterations for cfg.
func (m *Model) AccuracyAt(cfg searchspace.Config, cumIters int) float64 {
	return m.Asymptote(cfg) * m.Growth(cumIters)
}

// Growth returns the learning curve's progress after cumIters training
// iterations, 1 − exp(−cumIters/Tau): the share of its asymptote a
// configuration has reached. It depends on nothing else, so a caller
// observing many trials at the same iteration counts can tabulate it.
//
//rbvet:pure
func (m *Model) Growth(cumIters int) float64 {
	if cumIters < 0 {
		panic("model: negative iterations")
	}
	return 1 - math.Exp(-float64(cumIters)/m.Curve.Tau)
}

// ObserveAccuracy returns AccuracyAt plus observation noise drawn from r,
// clamped to [0, 1].
func (m *Model) ObserveAccuracy(cfg searchspace.Config, cumIters int, r *stats.RNG) float64 {
	return m.ObserveOn(m.Asymptote(cfg), cumIters, r)
}

// ObserveOn is ObserveAccuracy for a configuration whose Asymptote is
// asym. A configuration's asymptote never changes, so callers observing
// one configuration every iteration compute it once and call this.
func (m *Model) ObserveOn(asym float64, cumIters int, r *stats.RNG) float64 {
	return m.ObserveGrown(asym, m.Growth(cumIters), r)
}

// ObserveGrown is ObserveOn with the learning curve's progress already
// computed: asym·growth plus observation noise drawn from r, clamped to
// [0, 1]. ObserveOn(asym, k, r) is ObserveGrown(asym, Growth(k), r), bit
// for bit.
func (m *Model) ObserveGrown(asym, growth float64, r *stats.RNG) float64 {
	acc := asym*growth + m.Curve.NoiseStd*r.NormFloat64()
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}
