package core

import (
	"context"
	"testing"

	"vada/internal/transducer"
)

// reversedActivityOrder is a pathological network policy: latest phases
// first. Dependencies still gate execution, so the system must converge —
// just less directly.
func reversedActivityOrder() []string {
	src := transducer.DefaultActivityOrder
	out := make([]string, len(src))
	for i, a := range src {
		out[len(src)-1-i] = a
	}
	return out
}

// TestOrchestrationConfluenceAcrossPolicies is the ablation the paper's §2.4
// invites: the network transducer decides *order*, the declared
// dependencies decide *what can run* — so different policies must reach the
// same quiescent result. This is what makes the declarative-dependency
// architecture trustworthy: policy tuning cannot corrupt outcomes.
func TestOrchestrationConfluenceAcrossPolicies(t *testing.T) {
	sc := testScenario(t, 100)
	policies := map[string]transducer.NetworkTransducer{
		"generic":  transducer.NewGenericNetwork(),
		"reversed": transducer.NewGenericNetwork(reversedActivityOrder()...),
		"prefer-instance": &transducer.PreferNetwork{
			Inner:    transducer.NewGenericNetwork(),
			Prefixes: []string{"instance-"},
		},
	}

	type outcome struct {
		steps int
		rows  int
		f1    float64
	}
	results := map[string]outcome{}
	for name, policy := range policies {
		opts := DefaultOptions()
		opts.Network = policy
		w := BuildScenarioWrangler(sc, WithOptions(opts))
		w.AddDataContext(sc.AddressRef)
		steps, err := w.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		score := sc.Oracle.ScoreResult(w.ResultClean())
		results[name] = outcome{steps: len(steps), rows: score.Rows, f1: score.F1}
	}

	base := results["generic"]
	for name, r := range results {
		if r.rows != base.rows || r.f1 != base.f1 {
			t.Errorf("policy %s diverged: %+v vs generic %+v", name, r, base)
		}
	}
	// The generic phase ordering should not be slower than the pathological
	// reversed one — that efficiency is the network transducer's job (§2.4).
	if results["generic"].steps > results["reversed"].steps {
		t.Errorf("generic policy took %d steps, reversed %d — phase ordering should pay",
			results["generic"].steps, results["reversed"].steps)
	}
	t.Logf("steps to quiescence: generic=%d reversed=%d prefer-instance=%d",
		results["generic"].steps, results["reversed"].steps, results["prefer-instance"].steps)
}

// TestFusionStrategyAblation compares conflict-resolution strategies on the
// scenario's bedroom conflicts: trust-weighted fusion (with feedback-derived
// trust) must not do worse than plain voting.
func TestFusionStrategyAblation(t *testing.T) {
	sc := testScenario(t, 200)
	ctx := context.Background()

	run := func(withFeedback bool) float64 {
		w := BuildScenarioWrangler(sc)
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if withFeedback {
			w.AddFeedback(OracleFeedback(sc, w.Result(), 120, 3)...)
			if _, err := w.Run(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return sc.Oracle.ScoreResult(w.ResultClean()).ValueAccuracy
	}

	voting := run(false)       // no feedback → voting fusion
	trustWeighted := run(true) // feedback → trust-weighted fusion + rules
	if trustWeighted < voting {
		t.Errorf("trust-weighted fusion (%.3f) should not lose to voting (%.3f)", trustWeighted, voting)
	}
	t.Logf("value accuracy: voting=%.3f trust-weighted+rules=%.3f", voting, trustWeighted)
}

// TestDataContextAblation quantifies each data-context consumer separately:
// with instance matching but no CFDs, and vice versa, quality sits between
// bootstrap and the full data-context stage.
func TestDataContextAblation(t *testing.T) {
	sc := testScenario(t, 150)
	ctx := context.Background()

	full := func() float64 {
		w := BuildScenarioWrangler(sc)
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return sc.Oracle.ScoreResult(w.ResultClean()).F1
	}()
	bootstrapOnly := func() float64 {
		w := BuildScenarioWrangler(sc)
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return sc.Oracle.ScoreResult(w.ResultClean()).F1
	}()
	// No CFDs (mining disabled by an impossible support threshold): only
	// instance matching benefits remain.
	noCFDs := func() float64 {
		opts := DefaultOptions()
		opts.MineOptions.MinSupport = 2.0 // > 1: nothing mined
		opts.MineOptions.MinConstantSupport = 1 << 30
		w := BuildScenarioWrangler(sc, WithOptions(opts))
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return sc.Oracle.ScoreResult(w.ResultClean()).F1
	}()

	if full <= bootstrapOnly {
		t.Errorf("full data context (%.3f) should beat bootstrap (%.3f)", full, bootstrapOnly)
	}
	if noCFDs > full {
		t.Errorf("disabling CFDs (%.3f) should not beat full (%.3f)", noCFDs, full)
	}
	if noCFDs < bootstrapOnly {
		t.Errorf("instance matching alone (%.3f) should still beat bootstrap (%.3f)", noCFDs, bootstrapOnly)
	}
	t.Logf("F1: bootstrap=%.3f instance-matching-only=%.3f full-data-context=%.3f",
		bootstrapOnly, noCFDs, full)
}
