package core

import "vada/internal/transducer"

// Option mutates the Wrangler configuration. Constructors take a variadic
// list of options applied over DefaultOptions, so callers state only what
// they deviate on:
//
//	w := core.NewWrangler(core.WithMatchThreshold(0.7), core.WithMaxSteps(200))
type Option func(*Options)

// WithOptions replaces the whole configuration — the compatibility shim for
// code that built a positional Options struct before functional options:
//
//	opts := core.DefaultOptions()
//	opts.GenOptions.MinCoverage = 2
//	w := core.NewWrangler(core.WithOptions(opts))
func WithOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// WithMatchThreshold sets the minimum match score for mapping generation.
func WithMatchThreshold(t float64) Option {
	return func(o *Options) { o.MatchThreshold = t }
}

// WithMinCoverage sets the minimum number of target attributes a candidate
// mapping must cover — the knob small-schema quickstarts need most.
func WithMinCoverage(n int) Option {
	return func(o *Options) { o.GenOptions.MinCoverage = n }
}

// WithMaxSteps bounds one orchestration run.
func WithMaxSteps(n int) Option {
	return func(o *Options) { o.MaxSteps = n }
}

// WithNetwork overrides the network transducer (nil = generic).
func WithNetwork(n transducer.NetworkTransducer) Option {
	return func(o *Options) { o.Network = n }
}

// buildOptions folds opts over the production defaults.
func buildOptions(opts []Option) Options {
	o := DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
