// Package searchspace defines hyperparameter search spaces and sampling.
//
// RubberBand is agnostic to how configurations are chosen (§2): the user
// supplies a search space and a sampling method. This package provides the
// standard dimension types (uniform, log-uniform, integer, categorical)
// and deterministic seeded random sampling, which is all the evaluation
// workloads require.
package searchspace

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
)

// Config is one sampled hyperparameter configuration: a value per
// dimension of the space it came from. Values are float64 for numeric
// dimensions and string for categorical ones. A Config is a view: its
// names are shared with the Space, and its values with the other
// configurations drawn by the same SampleN call, so it holds no map and
// no boxed value. Configs are immutable. The zero Config has no
// dimensions.
type Config struct {
	lay  *layout
	vals []float64
}

// layout names a Config's values: names[i] names vals[i], and opts[i]
// holds the options of a categorical value, which the value indexes
// (nil for a numeric value).
type layout struct {
	names []string
	opts  [][]string
}

// newLayout returns the layout of configurations over dims, in order.
func newLayout(dims []Dimension) *layout {
	l := &layout{names: make([]string, len(dims)), opts: make([][]string, len(dims))}
	for i, d := range dims {
		l.names[i] = d.Name()
		if c, ok := d.(Choice); ok {
			l.opts[i] = c.Options
		}
	}
	return l
}

// index returns the position of the named value, or -1.
func (c Config) index(name string) int {
	if c.lay == nil {
		return -1
	}
	return slices.Index(c.lay.names, name)
}

// Len returns the number of values in the configuration.
func (c Config) Len() int { return len(c.vals) } //rbvet:ignore unreached — the asha tests check that a run returned a configuration through it

// Float returns the named numeric value. It panics if the key is missing
// or not numeric — configs are produced by Space.Sample, so a miss is a
// programming error.
func (c Config) Float(name string) float64 {
	i := c.index(name)
	if i < 0 {
		panic(fmt.Sprintf("searchspace: config missing %q", name))
	}
	if c.lay.opts[i] != nil {
		panic(fmt.Sprintf("searchspace: config key %q is string, not float64", name))
	}
	return c.vals[i]
}

// Str returns the named categorical value, panicking on a miss.
func (c Config) Str(name string) string {
	i := c.index(name)
	if i < 0 {
		panic(fmt.Sprintf("searchspace: config missing %q", name))
	}
	if c.lay.opts[i] == nil {
		panic(fmt.Sprintf("searchspace: config key %q is float64, not string", name))
	}
	return c.lay.opts[i][int(c.vals[i])]
}

// Lookup returns the named numeric value and whether the configuration
// has it; a categorical value reads as 0.
func (c Config) Lookup(name string) (float64, bool) {
	i := c.index(name)
	if i < 0 {
		return 0, false
	}
	if c.lay.opts[i] != nil {
		return 0, true
	}
	return c.vals[i], true
}

// asMap returns the configuration as a map from name to value (nil for
// the zero Config). Only rendering uses it.
func (c Config) asMap() map[string]any {
	if c.lay == nil {
		return nil
	}
	m := make(map[string]any, len(c.vals))
	for i, name := range c.lay.names {
		if c.lay.opts[i] != nil {
			m[name] = c.Str(name)
		} else {
			m[name] = c.vals[i]
		}
	}
	return m
}

// String renders the configuration as fmt renders a map from name to
// value: map[lr:0.01 momentum:0.9], keys sorted.
func (c Config) String() string { return fmt.Sprint(c.asMap()) }

// MarshalJSON encodes the configuration as a JSON object keyed by name,
// keys sorted; the zero Config encodes as null.
func (c Config) MarshalJSON() ([]byte, error) { return json.Marshal(c.asMap()) }

// Dimension is one axis of the search space. The package's four
// dimension types are the only implementations.
type Dimension interface {
	// Name identifies the hyperparameter.
	Name() string
	// draw samples one value using r: the number itself, or for a
	// categorical dimension the index of the option.
	draw(r *stats.RNG) float64
}

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct {
	Key    string
	Lo, Hi float64
}

// Name returns the dimension name.
func (u Uniform) Name() string { return u.Key }

func (u Uniform) draw(r *stats.RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// LogUniform samples log-uniformly from [Lo, Hi); both bounds must be
// positive. It is the conventional prior for learning rates and weight
// decay.
type LogUniform struct {
	Key    string
	Lo, Hi float64
}

// Name returns the dimension name.
func (l LogUniform) Name() string { return l.Key }

// draw draws exp(U(log Lo, log Hi)).
func (l LogUniform) draw(r *stats.RNG) float64 {
	lo, hi := math.Log(l.Lo), math.Log(l.Hi)
	return math.Exp(lo + (hi-lo)*r.Float64())
}

// IntRange samples an integer uniformly from [Lo, Hi] and returns it as a
// float64 so Config.Float works uniformly.
type IntRange struct {
	Key    string
	Lo, Hi int
}

// Name returns the dimension name.
func (i IntRange) Name() string { return i.Key }

func (i IntRange) draw(r *stats.RNG) float64 { return float64(i.Lo + r.Intn(i.Hi-i.Lo+1)) }

// Choice samples uniformly from a fixed set of string options.
type Choice struct {
	Key     string
	Options []string
}

// Name returns the dimension name.
func (c Choice) Name() string { return c.Key }

func (c Choice) draw(r *stats.RNG) float64 { return float64(r.Intn(len(c.Options))) }

// Space is a multi-dimensional search space. It has no mutators, so one
// Space may be shared freely.
type Space struct {
	dims []Dimension
	lay  *layout
}

// New builds a space from dimensions, rejecting duplicates and invalid
// bounds.
func New(dims ...Dimension) (*Space, error) {
	for i, d := range dims {
		if d.Name() == "" {
			return nil, fmt.Errorf("searchspace: dimension with empty name")
		}
		if slices.ContainsFunc(dims[:i], func(e Dimension) bool { return e.Name() == d.Name() }) {
			return nil, fmt.Errorf("searchspace: duplicate dimension %q", d.Name())
		}
		switch v := d.(type) {
		case Uniform:
			if v.Hi < v.Lo {
				return nil, fmt.Errorf("searchspace: %q has Hi < Lo", v.Key)
			}
		case LogUniform:
			if v.Lo <= 0 || v.Hi < v.Lo {
				return nil, fmt.Errorf("searchspace: %q needs 0 < Lo <= Hi", v.Key)
			}
		case IntRange:
			if v.Hi < v.Lo {
				return nil, fmt.Errorf("searchspace: %q has Hi < Lo", v.Key)
			}
		case Choice:
			if len(v.Options) == 0 {
				return nil, fmt.Errorf("searchspace: %q has no options", v.Key)
			}
		}
	}
	dims = slices.Clone(dims)
	return &Space{dims: dims, lay: newLayout(dims)}, nil
}

// MustNew is New for static spaces; it panics on error.
func MustNew(dims ...Dimension) *Space {
	s, err := New(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// Sample draws one configuration.
func (s *Space) Sample(r *stats.RNG) Config { return s.draw(r, make([]float64, len(s.dims))) }

// SampleN draws n configurations, one after another. Their values share
// one slab.
func (s *Space) SampleN(r *stats.RNG, n int) []Config {
	out, _ := s.SampleNInto(r, n, nil, nil)
	return out
}

// SampleNInto draws n configurations exactly as SampleN does, into the
// storage of cfgs and vals where it is large enough, and returns the
// configurations and the value slab they share, for the next call to
// reuse once the configurations are no longer needed.
func (s *Space) SampleNInto(r *stats.RNG, n int, cfgs []Config, vals []float64) ([]Config, []float64) {
	d := len(s.dims)
	if cap(vals) < n*d {
		vals = make([]float64, n*d)
	}
	vals = vals[:n*d]
	if cap(cfgs) < n {
		cfgs = make([]Config, n)
	}
	cfgs = cfgs[:n]
	for i := range cfgs {
		cfgs[i] = s.draw(r, vals[i*d:(i+1)*d:(i+1)*d])
	}
	return cfgs, vals
}

// draw fills vals, which holds one value per dimension, drawing them in
// dimension order from r, and returns them as a configuration.
func (s *Space) draw(r *stats.RNG, vals []float64) Config {
	for i, d := range s.dims {
		vals[i] = d.draw(r)
	}
	return Config{lay: s.lay, vals: vals}
}

// DefaultVisionSpace returns the learning-rate / momentum / weight-decay
// space used by the image-classification tuning workloads. Every call
// returns the same Space, built once.
func DefaultVisionSpace() *Space { return defaultVisionSpace() }

var defaultVisionSpace = sync.OnceValue(func() *Space {
	return MustNew(
		LogUniform{Key: "lr", Lo: 1e-4, Hi: 1},
		Uniform{Key: "momentum", Lo: 0.8, Hi: 0.99},
		LogUniform{Key: "weight_decay", Lo: 1e-6, Hi: 1e-2},
	)
})

// DefaultNLPSpace returns a fine-tuning space typical of BERT on GLUE
// tasks. Every call returns the same Space, built once.
func DefaultNLPSpace() *Space { return defaultNLPSpace() }

var defaultNLPSpace = sync.OnceValue(func() *Space {
	return MustNew(
		LogUniform{Key: "lr", Lo: 1e-6, Hi: 1e-3},
		Uniform{Key: "dropout", Lo: 0.0, Hi: 0.3},
		LogUniform{Key: "weight_decay", Lo: 1e-6, Hi: 1e-1},
	)
})
