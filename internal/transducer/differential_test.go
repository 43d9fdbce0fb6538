package transducer_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/mcda"
	"vada/internal/relation"
	"vada/internal/transducer"
)

// networks are the policies every differential case runs under: the read-set
// rule must cut the same no-ops whatever order the network picks in.
var networks = map[string]func() transducer.NetworkTransducer{
	"generic": func() transducer.NetworkTransducer { return transducer.NewGenericNetwork() },
	"prefer-instance": func() transducer.NetworkTransducer {
		return &transducer.PreferNetwork{Inner: transducer.NewGenericNetwork(), Prefixes: []string{"instance-"}}
	},
}

// pair is one wrangling conversation held twice: got is driven by the
// Orchestrator inside its Wrangler, want's knowledge base and registry by
// the ReferenceOrchestrator. Every stage is applied to both and compared.
type pair struct {
	t         testing.TB
	got, want *core.Wrangler
	ref       *transducer.ReferenceOrchestrator
	kept      map[*core.Wrangler]*mcda.Model // see editInPlace
	stages    int
	executed  int // steps got took
	reference int // steps want took
}

func newPair(t testing.TB, network func() transducer.NetworkTransducer, build func(...core.Option) *core.Wrangler) *pair {
	p := &pair{t: t, got: build(core.WithNetwork(network())), want: build(core.WithNetwork(network()))}
	p.ref = transducer.NewReferenceOrchestrator(p.want.KB, p.want.Registry(), network())
	return p
}

// changing is the sub-sequence of steps that moved the knowledge base.
func changing(steps []transducer.Step) []string {
	var out []string
	for _, s := range steps {
		if s.VersionAfter != s.VersionBefore {
			out = append(out, fmt.Sprintf("%s v%d→v%d", s.Transducer, s.VersionBefore, s.VersionAfter))
		}
	}
	return out
}

func snapshotBytes(t testing.TB, w *core.Wrangler) []byte {
	var buf bytes.Buffer
	if err := w.KB.Snapshot().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stage applies action to both wranglers, runs both to quiescence and holds
// them to each other: the same changing steps in the same order, the same
// knowledge base byte for byte, the same result.
func (p *pair) stage(name string, action func(w *core.Wrangler)) {
	p.t.Helper()
	p.stages++
	if action != nil {
		action(p.got)
		action(p.want)
	}
	ctx := context.Background()
	got, err := p.got.Run(ctx)
	if err != nil {
		p.t.Fatalf("stage %d (%s): %v", p.stages, name, err)
	}
	want, err := p.ref.RunToQuiescence(ctx)
	if err != nil {
		p.t.Fatalf("stage %d (%s): reference: %v", p.stages, name, err)
	}
	p.executed += len(got)
	p.reference += len(want)
	if len(got) > len(want) {
		p.t.Fatalf("stage %d (%s): %d steps, the reference took %d", p.stages, name, len(got), len(want))
	}
	g, w := changing(got), changing(want)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		p.t.Fatalf("stage %d (%s): changing steps differ\n got: %v\nwant: %v\ntrace:\n%s",
			p.stages, name, g, w, transducer.TraceString(got))
	}
	if !bytes.Equal(snapshotBytes(p.t, p.got), snapshotBytes(p.t, p.want)) {
		p.t.Fatalf("stage %d (%s): knowledge bases differ after the same changing steps %v", p.stages, name, g)
	}
	if gr, wr := p.got.Result(), p.want.Result(); (gr == nil) != (wr == nil) || (gr != nil && gr.String() != wr.String()) {
		p.t.Fatalf("stage %d (%s): results differ", p.stages, name)
	}
}

// payAsYouGo is the conversation of the benchmark's payg_cycle: bootstrap,
// data context, three feedback rounds, crime, then size.
func (p *pair) payAsYouGo(sc *datagen.Scenario, ref *relation.Relation, budget int) {
	p.t.Helper()
	p.stage("bootstrap", nil)
	p.stage("data-context", func(w *core.Wrangler) { w.AddDataContext(ref) })
	for r := int64(1); r <= 3; r++ {
		var items []feedback.Item
		if sc != nil {
			items = core.OracleFeedback(sc, p.got.Result(), budget, sc.Config.Seed+r)
		} else {
			items = probeFeedback(p.got.Result(), int(r))
		}
		p.stage("feedback", func(w *core.Wrangler) { w.AddFeedback(items...) })
	}
	for _, name := range []string{"crime", "size"} {
		p.stage("user-context "+name, func(w *core.Wrangler) {
			m, err := core.UserContextByName(name)
			if err != nil {
				p.t.Fatal(err)
			}
			w.SetUserContext(m)
		})
	}
	p.editInPlace("crime")
	p.editInPlace("crime")
}

// editInPlace is the application that keeps one priority model per wrangler
// and edits it: the first call sets a model named name and keeps it, every
// later one reverses the kept model's first statement in place and sets the
// same pointer again — a different user context behind an equal pointer.
func (p *pair) editInPlace(name string) {
	p.t.Helper()
	if p.kept == nil {
		p.kept = map[*core.Wrangler]*mcda.Model{}
	}
	p.stage("user-context kept and edited", func(w *core.Wrangler) {
		m := p.kept[w]
		if m == nil {
			m, _ = core.UserContextByName(name)
			p.kept[w] = m
		} else {
			c := m.Comparisons()[0]
			if err := m.AddComparison(c.Less, c.More, mcda.Strength(9)); err != nil {
				p.t.Fatal(err)
			}
		}
		w.SetUserContext(m)
	})
}

// probeFeedback judges a few cells of a result there is no oracle for:
// every third row's price wrong, the rows between right.
func probeFeedback(res *relation.Relation, round int) []feedback.Item {
	if res == nil {
		return nil
	}
	si, pi := res.Schema.AttrIndex("street"), res.Schema.AttrIndex("postcode")
	ai := res.Schema.AttrIndex("price")
	if si < 0 || pi < 0 || ai < 0 {
		return nil
	}
	var items []feedback.Item
	for i := round - 1; i < res.Cardinality(); i += 2 {
		t := res.Tuples[i]
		if t[ai].IsNull() {
			continue
		}
		items = append(items, feedback.Item{
			Street: t[si].String(), Postcode: t[pi].String(), Attr: "price",
			Correct: i%3 != 0, Observed: t[ai], HasObserved: true,
		})
	}
	return items
}

func scenario(n int, seed int64) *datagen.Scenario {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = seed
	return datagen.Generate(cfg)
}

// readFixture decodes one of the connector example's CSV files the way a
// blank session's ingest stage does: headers inferred onto the target
// schema.
func readFixture(t testing.TB, name string) *relation.Relation {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "connectors", "testdata", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rel, _, err := connect.Read(name, f, connect.ReadOptions{Candidates: []relation.Schema{datagen.TargetSchema()}})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func blankWrangler(opts ...core.Option) *core.Wrangler {
	w := core.NewWrangler(opts...)
	w.SetTargetSchema(datagen.TargetSchema())
	return w
}

// TestOrchestrationDifferential holds the read-set orchestrator to the
// coarse reference, stage by stage, over generated scenarios, the connector
// fixtures and a blank session fed by ingest — under both network policies.
func TestOrchestrationDifferential(t *testing.T) {
	for netName, network := range networks {
		for _, n := range []int{25, 60, 110} {
			for seed := int64(1); seed <= 3; seed++ {
				if testing.Short() && (n > 60 || seed > 1) {
					continue
				}
				t.Run(fmt.Sprintf("%s/datagen/n=%d/seed=%d", netName, n, seed), func(t *testing.T) {
					sc := scenario(n, seed)
					p := newPair(t, network, func(opts ...core.Option) *core.Wrangler {
						return core.BuildScenarioWrangler(sc, opts...)
					})
					p.payAsYouGo(sc, sc.AddressRef, 30)
					if p.executed*2 > p.reference {
						t.Errorf("%d steps against the reference's %d: the read-set rule is not cutting no-ops", p.executed, p.reference)
					}
				})
			}
		}
		t.Run(netName+"/connector-fixtures", func(t *testing.T) {
			props, depr := readFixture(t, "props"), readFixture(t, "deprivation")
			p := newPair(t, network, func(opts ...core.Option) *core.Wrangler {
				w := blankWrangler(opts...)
				w.RegisterSource(props)
				w.RegisterSource(depr)
				return w
			})
			// The fixtures' own postcodes are the only reference data there
			// is: the deprivation table doubles as data context.
			p.payAsYouGo(nil, depr, 0)
		})
		t.Run(netName+"/blank-session-ingest", func(t *testing.T) {
			// A blank session fed one relation per stage, sources and data
			// context interleaved with runs, the way upload and ingest
			// stages arrive.
			sc := scenario(40, 7)
			p := newPair(t, network, blankWrangler)
			p.stage("empty", nil)
			p.stage("ingest rightmove", func(w *core.Wrangler) { w.RegisterSource(sc.Rightmove) })
			p.stage("ingest context", func(w *core.Wrangler) { w.AddDataContext(sc.AddressRef) })
			p.stage("ingest deprivation", func(w *core.Wrangler) { w.RegisterSource(sc.Deprivation) })
			p.stage("ingest onthemarket", func(w *core.Wrangler) { w.RegisterSource(sc.OnTheMarket) })
			p.stage("re-ingest context", func(w *core.Wrangler) { w.AddDataContext(sc.AddressRef) })
			items := core.OracleFeedback(sc, p.got.Result(), 25, 3)
			p.stage("feedback", func(w *core.Wrangler) { w.AddFeedback(items...) })
			p.stage("user-context", func(w *core.Wrangler) { w.SetUserContext(core.SizeAnalysisUserContext()) })
		})
	}
}

// FuzzOrchestrationDifferential lets the fuzzer write the conversation: the
// first two bytes choose the network and the scenario, every further byte
// is one stage — including the sequences a user interface makes likely and
// a test author does not: feedback before any data context, the same items
// twice, the same user context twice, a kept model edited in place and set
// again, context re-added.
func FuzzOrchestrationDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 2, 2, 4, 5})       // the payg cycle
	f.Add([]byte{1, 2, 0, 2, 3, 1, 4, 4, 3, 5, 6}) // feedback first, duplicates, repeated context
	f.Add([]byte{0, 3, 2, 6, 1, 1, 7, 2, 5, 4, 0})
	f.Add([]byte{1, 4, 0, 1, 8, 2, 8, 8, 5, 8})                // a kept model edited in place
	f.Add([]byte{0, 2, 0, 0xf1, 1, 2, 0xf0, 0xf2, 2, 0xf3, 4}) // writes past the API
	f.Fuzz(runScript)
}

// externalWrite writes to the knowledge base past the wrangler's API, as
// another client of it could: a fact of a predicate a dependency query names,
// the relation a dependency guard asks about, or the facts a dependency holds
// on.
func externalWrite(w *core.Wrangler, op byte) {
	switch op % 4 {
	case 0:
		w.KB.Assert(core.PredReference, relation.NewTuple("nowhere"))
	case 1:
		w.KB.DropRelation(core.RelResult)
	case 2:
		w.KB.RetractPredicate(core.PredFeedback)
	case 3:
		w.KB.RetractPredicate(core.PredMapped)
	}
}

// runScript plays one fuzz input.
func runScript(t *testing.T, script []byte) {
	{
		if len(script) < 2 {
			return
		}
		if len(script) > 14 {
			script = script[:14]
		}
		network := networks["generic"]
		if script[0]%2 == 1 {
			network = networks["prefer-instance"]
		}
		sc := scenario(18+int(script[1]%3)*6, int64(script[1]%5)+1)
		p := newPair(t, network, func(opts ...core.Option) *core.Wrangler {
			return core.BuildScenarioWrangler(sc, opts...)
		})
		var last []feedback.Item
		lastModel := "crime"
		for i, op := range script[2:] {
			if op >= 0xf0 {
				p.stage("external write", func(w *core.Wrangler) { externalWrite(w, op) })
				continue
			}
			switch op % 9 {
			case 0:
				p.stage("run", nil)
			case 1:
				p.stage("data-context", func(w *core.Wrangler) { w.AddDataContext(sc.AddressRef) })
			case 2:
				last = core.OracleFeedback(sc, p.got.Result(), 4+int(op/9)%12, int64(i)+1)
				p.stage("feedback", func(w *core.Wrangler) { w.AddFeedback(last...) })
			case 3:
				p.stage("feedback again", func(w *core.Wrangler) { w.AddFeedback(last...) })
			case 4, 5:
				lastModel = []string{"crime", "size"}[op%9-4]
				fallthrough
			case 6:
				p.stage("user-context "+lastModel, func(w *core.Wrangler) {
					m, _ := core.UserContextByName(lastModel)
					w.SetUserContext(m)
				})
			case 7:
				// A judgement about a tuple no result holds, and one whose
				// attribute does not exist.
				items := []feedback.Item{
					{Street: fmt.Sprintf("%d Nowhere Road", op), Postcode: "ZZ1 1ZZ", Attr: "price", Correct: false},
					{Street: "1 Acer Road", Postcode: "LS2 7QT", Attr: "colour", Correct: op%16 < 8},
				}
				p.stage("stray feedback", func(w *core.Wrangler) { w.AddFeedback(items...) })
			case 8:
				p.editInPlace(lastModel)
			}
		}
	}
}
