package vada_test

import (
	"context"
	"strings"
	"testing"

	"vada"
)

// bootstrap runs the automatic first step on a configured Wrangler.
func bootstrap(t *testing.T, w *vada.Wrangler) {
	t.Helper()
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIQuickstart exercises the facade end to end the way the
// quickstart example does.
func TestPublicAPIQuickstart(t *testing.T) {
	shop := vada.NewRelation(vada.NewSchema("shop", "name", "price", "city"))
	shop.MustAppend("kettle", 25.0, "Leeds")
	shop.MustAppend("toaster", 35.0, "Manchester")

	w := vada.New(vada.WithMinCoverage(2))
	w.RegisterSource(shop)
	w.SetTargetSchema(vada.NewSchema("catalogue", "name", "price:float", "city"))
	bootstrap(t, w)
	res := w.ResultClean()
	if res == nil || res.Cardinality() != 2 {
		t.Fatalf("result = %v", res)
	}
	if !res.Schema.HasAttr("name") || !res.Schema.HasAttr("price") {
		t.Fatalf("schema = %v", res.Schema)
	}
}

// TestPublicAPIScenario runs the paper scenario through the facade.
func TestPublicAPIScenario(t *testing.T) {
	cfg := vada.DefaultScenarioConfig()
	cfg.NProperties = 80
	sc := vada.GenerateScenario(cfg)
	w := vada.BuildScenarioWrangler(sc)
	bootstrap(t, w)
	score := sc.Oracle.ScoreResult(w.ResultClean())
	if score.Rows == 0 || score.F1 <= 0 {
		t.Fatalf("score = %+v", score)
	}
	if !strings.Contains(w.Architecture(), "Vadalog Reasoner") {
		t.Fatal("architecture rendering broken")
	}
}

// TestPublicAPIReasoner checks the exported reasoner path.
func TestPublicAPIReasoner(t *testing.T) {
	prog, err := vada.ParseVadalog(`anc(X, Y) :- par(X, Y). anc(X, Z) :- anc(X, Y), par(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	edb := vada.MapEDB{"par": {vada.NewTuple("a", "b"), vada.NewTuple("b", "c")}}
	res, err := vada.NewEngine().Run(prog, edb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count("anc") != 3 {
		t.Fatalf("anc = %d", res.Count("anc"))
	}
}

// TestPublicAPIUserContext checks the exported MCDA path.
func TestPublicAPIUserContext(t *testing.T) {
	uc := vada.NewUserContext()
	a := vada.Criterion{Metric: "completeness", Target: "crimerank"}
	b := vada.Criterion{Metric: "accuracy", Target: "type"}
	if err := uc.AddComparison(a, b, vada.VeryStrongly); err != nil {
		t.Fatal(err)
	}
	weights, _, err := uc.Weights()
	if err != nil || weights[a] <= weights[b] {
		t.Fatalf("weights = %v, %v", weights, err)
	}
	s, err := vada.ParseStrength("very strongly more important than")
	if err != nil || s != vada.VeryStrongly {
		t.Fatalf("ParseStrength = %v, %v", s, err)
	}
}

// TestPublicAPIExtraction checks the exported extraction path.
func TestPublicAPIExtraction(t *testing.T) {
	cfg := vada.DefaultScenarioConfig()
	cfg.NProperties = 30
	sc := vada.GenerateScenario(cfg)
	pages := vada.GeneratePages(vada.RightmoveTemplate(), sc.Rightmove)
	wr, err := vada.InduceWrapper(pages[0], vada.BootstrapAnnotations(sc.Rightmove, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := wr.Extract(pages, sc.Rightmove.Schema)
	if err != nil || rel.Cardinality() != sc.Rightmove.Cardinality() {
		t.Fatalf("extract = %v, %v", rel.Cardinality(), err)
	}
}
