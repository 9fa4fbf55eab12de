package stats

import "math"

// latOp tags a compiled latency's distribution. The common distributions
// are inlined as opcodes with their parameters in the Lat itself, so
// sampling them is a branch-predictable switch with no interface
// dispatch; anything else falls back to the wrapped Dist.
type latOp uint8

const (
	opDet       latOp = iota // point mass: p0
	opNormal                 // max(0, N(p0, p1))
	opLogNormal              // exp(N(p0, p1))
	opUniform                // uniform [p0, p1)
	opExp                    // exponential with mean p0
	opPareto                 // pareto(scale=p0, alpha=p1)
	opRepeat                 // sum of n draws from d
	opDist                   // opaque: d.Sample
)

// Lat is a latency distribution compiled for repeated sampling and
// moment propagation: an opcode with inline parameters for the built-in
// distribution types, the wrapped Dist for the rest. It is the one
// encoding the provider's overhead draws, the simulator's moment pass
// and its Monte-Carlo test oracle share. Sample
// consumes RNG draws exactly as the encoded distribution's own Sample
// does, so a compiled latency is bit-identical to the Dist it came from.
// A Lat is immutable after CompileLat and safe for concurrent use (each
// goroutine with its own RNG).
type Lat struct {
	op     latOp
	n      int32 // opRepeat draw count
	p0, p1 float64
	d      Dist // opRepeat's summand or opDist's distribution
}

// CompileLat encodes d. Compiling a distribution already held in an
// interface allocates nothing.
//
//rbvet:pure
func CompileLat(d Dist) Lat {
	switch v := d.(type) {
	case Deterministic:
		return Lat{op: opDet, p0: v.Value}
	case Normal:
		return Lat{op: opNormal, p0: v.Mu, p1: v.Sigma}
	case LogNormal:
		return Lat{op: opLogNormal, p0: v.Mu, p1: v.Sigma}
	case Uniform:
		return Lat{op: opUniform, p0: v.Lo, p1: v.Hi}
	case Exponential:
		return Lat{op: opExp, p0: v.MeanValue}
	case Pareto:
		return Lat{op: opPareto, p0: v.Scale, p1: v.Alpha}
	case Repeat:
		return Lat{op: opRepeat, n: int32(v.N), d: v.D}
	}
	return Lat{op: opDist, d: d}
}

// SumLat compiles the distribution of the total latency of n i.i.d.
// draws from d. Normal and deterministic summands collapse analytically
// (the sum of n normals is N(nμ, √n·σ), truncated at zero as the
// per-draw Sample would have applied n times), which keeps sampling cost
// independent of n; other distributions compile as Repeat{d, n}, drawing
// n samples per evaluation. Unlike compiling a Repeat or a collapsed
// Normal built by the caller, it boxes nothing. It panics if n < 0.
//
//rbvet:pure
func SumLat(d Dist, n int) Lat {
	if n < 0 {
		panic("stats: negative iteration count")
	}
	switch v := d.(type) {
	case Deterministic:
		return Lat{op: opDet, p0: float64(n) * v.Value}
	case Normal:
		return Lat{op: opNormal, p0: float64(n) * v.Mu, p1: math.Sqrt(float64(n)) * v.Sigma}
	}
	return Lat{op: opRepeat, n: int32(n), d: d}
}

// Boxed reports whether the latency holds a distribution in an
// interface (a Repeat summand or an opaque distribution): the only case
// in which a Lat holds a pointer.
func (l *Lat) Boxed() bool { return l.d != nil }

// Sample draws one latency: the one-draw case of SampleInto.
//
//rbvet:pure
//rbvet:noalloc
func (l *Lat) Sample(r *RNG) float64 {
	var v [1]float64
	l.SampleInto(r, v[:])
	return v[0]
}

// SampleInto fills dst with consecutive draws under one opcode dispatch,
// consuming r exactly as len(dst) calls of Sample would, in order.
//
//rbvet:pure
//rbvet:noalloc
func (l *Lat) SampleInto(r *RNG, dst []float64) {
	switch l.op {
	case opDet:
		for i := range dst {
			dst[i] = l.p0
		}
	case opNormal:
		for i := range dst {
			v := l.p0 + l.p1*r.NormFloat64()
			if v < 0 {
				v = 0
			}
			dst[i] = v
		}
	case opLogNormal:
		for i := range dst {
			dst[i] = math.Exp(l.p0 + l.p1*r.NormFloat64())
		}
	case opUniform:
		for i := range dst {
			dst[i] = l.p0 + (l.p1-l.p0)*r.Float64()
		}
	case opExp:
		for i := range dst {
			u := r.Float64()
			if u >= 1 {
				u = math.Nextafter(1, 0)
			}
			dst[i] = -l.p0 * math.Log(1-u)
		}
	case opPareto:
		for i := range dst {
			u := r.Float64()
			if u == 0 {
				u = math.Nextafter(0, 1)
			}
			dst[i] = l.p0 / math.Pow(u, 1/l.p1)
		}
	case opRepeat:
		for i := range dst {
			var sum float64
			for j := int32(0); j < l.n; j++ {
				sum += l.d.Sample(r)
			}
			dst[i] = sum
		}
	default:
		for i := range dst {
			dst[i] = l.d.Sample(r)
		}
	}
}

// Moment returns the latency's (mean, variance) and whether finite
// analytic moments exist at all: Pareto needs alpha > 2, and wrapped
// distributions must implement Varer with finite values.
//
//rbvet:pure
func (l *Lat) Moment() (Moment, bool) {
	switch l.op {
	case opDet:
		return Moment{Mean: l.p0}, true
	case opNormal:
		// Sampling truncates at zero; like Normal.Mean, the moment
		// ignores the truncation bias (negligible at the sigma/mu ratios
		// the profiles use, and covered by the tolerance property tests).
		return Moment{Mean: l.p0, Var: l.p1 * l.p1}, true
	case opLogNormal:
		s2 := l.p1 * l.p1
		mean := math.Exp(l.p0 + s2/2)
		return Moment{Mean: mean, Var: (math.Exp(s2) - 1) * mean * mean}, true
	case opUniform:
		w := l.p1 - l.p0
		return Moment{Mean: (l.p0 + l.p1) / 2, Var: w * w / 12}, true
	case opExp:
		return Moment{Mean: l.p0, Var: l.p0 * l.p0}, true
	case opPareto:
		al := l.p1
		if al <= 2 {
			return Moment{}, false
		}
		am1 := al - 1
		return Moment{
			Mean: l.p0 * al / am1,
			Var:  l.p0 * l.p0 * al / (am1 * am1 * (al - 2)),
		}, true
	case opRepeat:
		base, ok := DistMoment(l.d)
		if !ok {
			return Moment{}, false
		}
		n := float64(l.n)
		return Moment{Mean: base.Mean * n, Var: base.Var * n}, true
	}
	return DistMoment(l.d)
}

// NonNeg reports whether the latency provably never samples below zero,
// the precondition for dominance pruning in a moment pass. Unknown
// distribution types answer false, which only disables pruning (a moment
// pass that needed the prune reports no moments), never a wrong moment.
//
//rbvet:pure
func (l *Lat) NonNeg() bool {
	switch l.op {
	case opDet, opUniform, opExp:
		return l.p0 >= 0
	case opNormal, opLogNormal, opPareto:
		return true // Normal samples truncate at zero
	case opRepeat:
		return nonNeg(l.d)
	}
	switch v := l.d.(type) {
	case Scaled:
		return v.Factor >= 0 && nonNeg(v.D)
	case *Scaled:
		return v.Factor >= 0 && nonNeg(v.D)
	case Shifted:
		return v.Offset >= 0 && nonNeg(v.D)
	}
	return false
}

// nonNeg is NonNeg for a distribution not yet compiled.
func nonNeg(d Dist) bool {
	l := CompileLat(d)
	return l.NonNeg()
}
