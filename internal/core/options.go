package core

import "vada/internal/transducer"

// Option sets one of the two things a caller may vary about a Wrangler;
// everything else is a constant of the suite:
//
//	w := core.NewWrangler(core.WithMinCoverage(2))
type Option func(*Wrangler)

// WithMinCoverage sets the minimum number of target attributes a candidate
// mapping must cover (default 3, and never more than the target has) — the
// knob small-schema quickstarts need most.
func WithMinCoverage(n int) Option {
	return func(w *Wrangler) { w.minCoverage = n }
}

// WithNetwork overrides the network transducer (nil = generic).
func WithNetwork(n transducer.NetworkTransducer) Option {
	return func(w *Wrangler) {
		if n != nil {
			w.orch.Network = n
		}
	}
}
