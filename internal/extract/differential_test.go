package extract

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// sameExtraction fails unless the one-pass extractor and the DOM reference
// agree on everything Extract returns: the relation cell by cell (kind and
// payload, floats as bit patterns), the provenance, and the error text.
func sameExtraction(t *testing.T, label string, w *Wrapper, pages []Page, schema relation.Schema) {
	t.Helper()
	got, gotProv, gotErr := w.Extract(pages, schema)
	want, wantProv, wantErr := refExtract(w, pages, schema)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if !got.Schema.Equal(want.Schema) || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %s with %d rows, reference %s with %d", label, got.Schema, len(got.Tuples), want.Schema, len(want.Tuples))
	}
	for i, wt := range want.Tuples {
		gt := got.Tuples[i]
		if len(gt) != len(wt) {
			t.Fatalf("%s: row %d has %d cells, reference %d", label, i, len(gt), len(wt))
		}
		for j, wv := range wt {
			gv := gt[j]
			if gv.Kind() != wv.Kind() || gv.Str() != wv.Str() || gv.IntVal() != wv.IntVal() ||
				math.Float64bits(gv.FloatVal()) != math.Float64bits(wv.FloatVal()) || gv.BoolVal() != wv.BoolVal() {
				t.Fatalf("%s: row %d %s is %s %q, reference %s %q", label, i, want.Schema.Attrs[j].Name,
					gv.Kind(), gv.String(), wv.Kind(), wv.String())
			}
		}
	}
	if !reflect.DeepEqual(gotProv, wantProv) {
		t.Fatalf("%s: provenance %v, reference %v", label, gotProv, wantProv)
	}
}

// sameInduction fails unless wrapper induction and its reference learn the
// same wrapper from the page, or fail with the same words.
func sameInduction(t *testing.T, label string, page Page, anns []Annotation) *Wrapper {
	t.Helper()
	got, gotErr := InduceWrapper(page, anns)
	want, wantErr := refInduceWrapper(page, anns)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: induced %v (%v), reference %v (%v)", label, got, gotErr, want, wantErr)
	}
	return got
}

// templateWrapper is the wrapper induction should learn for a template.
func templateWrapper(tmpl SiteTemplate, schema relation.Schema) *Wrapper {
	w := &Wrapper{RecordTag: tmpl.RecordTag, RecordClass: tmpl.RecordClass}
	for _, attr := range schema.AttrNames() {
		w.Fields = append(w.Fields, FieldRule{Attr: attr, Tag: tmpl.FieldTag[attr], Class: tmpl.FieldClass[attr]})
	}
	return w
}

// messyPages are pages no template generates: what the tolerance rules are
// for. Each is extracted with messyWrapper into messySchema.
var messyPages = map[string]string{
	"unclosed li": `<ul><li class=rec><b class=a>one</b><li class=rec><b class=a>two</b><i class=b>2</i></ul><p>after`,
	"nested records": `<div class="rec"><b class="a">outer</b><div class="rec x"><b class="a">inner</b><i class="b">1.5</i></div>` +
		`<i class="b">late</i></div><div class="rec"></div>`,
	"field is the record":  `<b class="rec a">self <i class="b">7</i></b><b class="rec a"><b class="a">child</b></b>`,
	"missing field":        `<div class="rec"><i class="b">true</i></div><div class="rec"><b class="a"></b><i class="b"> </i></div>`,
	"entities":             `<div class="rec"><b class="a">&pound;250,000 &amp; more&nbsp;&lt;ok&gt; £1</b><i class="b">&amp;nbsp;</i></div>`,
	"uppercase":            `<DIV CLASS="rec"><B Class='a'>Loud</B><I cLaSs=b>0x10</I></DIV></Div><div class=rec>`,
	"bare attributes":      `<div id=x class=rec data-k=v><b class=a hidden>bare</b><i hidden class=b>-0</i></div>`,
	"class twice":          `<div class="no" class="rec"><b class=a class>x</b><b class="a b">both</b></div>`,
	"split text":           `<div class=rec><b class=a>one<!-- c -->two<br>three<span> four </span>five<>six</b></div>`,
	"script and style":     `<div class=rec><script>var s = "<b class=a>not</b></scr" + "ipt>";</SCRIPT ><b class=a>yes</b><style>i{}</style ><i class=b>1e3</i></div>`,
	"unclosed script":      `<div class=rec><b class=a>kept</b></div><div class=rec><script>never closed <b class=a>x</b></div>`,
	"unterminated tag":     `<div class=rec><b class=a>kept</b><i class=b>2</i></div><div class=rec><b class=a`,
	"unterminated comment": `<div class=rec><b class=a>kept</b><!-- <i class=b>2</i></div>`,
	"self closing":         `<div class=rec/><div class=rec><b class=a/>after<i class=b>3</i></div><img class="rec"><input class=a>`,
	"stray close":          `</div><div class=rec></span><b class=a>x</i>y</b></b><i class=b>4</i></div></div>`,
	"deep":                 `<div class=rec><p><span><b class=a><u>deep</u> <s>text</s></b></span><i class=b>5</i></div>`,
	"odd spaces":           "<div\tclass=rec\n><b\fclass=a>ff</b><i class=b\v> 6 </i></div >",
	"content no records":   `<p>1</p><p>2</p><p>3</p><p>4</p><p>5</p><p>6</p>`,
	"empty":                ``,
	"element named #root":  `<div class=rec><#root class=rec><b class=a>kept</b></#root></div><div class=rec><#root class=rec><i class=b>2</i></#root></div>`,
	// ("a", "bc") and ("ab", "c") once tied in the field vote: tag+class is
	// "abc" for both.
	"shape collision": `<div class=r><a class=bc>X</a><i class=k>1</i></div><div class=r><ab class=c>X</ab><i class=k>2</i></div>`,
}

var messySchema = relation.NewSchema("mess", "a", "b", "norule")

func messyWrapper() *Wrapper {
	return &Wrapper{RecordTag: "", RecordClass: "rec", Fields: []FieldRule{
		{Attr: "a", Tag: "i", Class: "never"}, // overridden by the later rule for a
		{Attr: "a", Tag: "b", Class: "a"},
		{Attr: "b", Tag: "i", Class: "b"},
		{Attr: "absent", Tag: "u"},
	}}
}

// TestExtractDifferential holds the one-pass extractor and the indexed
// induction to the DOM code they replaced: both portal templates at sizes
// around the page boundaries, and pages no template generates.
func TestExtractDifferential(t *testing.T) {
	sizes := []int{0, 1, 20, 21, 25, 26, 600}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := datagen.DefaultConfig()
		cfg.NProperties, cfg.Seed = 1200, seed
		sc := datagen.Generate(cfg)
		for _, portal := range []struct {
			tmpl SiteTemplate
			src  *relation.Relation
		}{{RightmoveTemplate(), sc.Rightmove}, {OnTheMarketTemplate(), sc.OnTheMarket}} {
			for _, n := range sizes {
				label := fmt.Sprintf("%s n=%d seed=%d", portal.tmpl.Name, n, seed)
				if n > portal.src.Cardinality() {
					t.Fatalf("%s: source has only %d rows", label, portal.src.Cardinality())
				}
				src := &relation.Relation{Schema: portal.src.Schema, Tuples: portal.src.Tuples[:n]}
				pages := GeneratePages(portal.tmpl, src)
				w := templateWrapper(portal.tmpl, src.Schema)
				if n >= 3 {
					w = sameInduction(t, label, pages[0], BootstrapAnnotations(src, []int{0, 1, 2}))
				}
				sameExtraction(t, label, w, pages, src.Schema)
				// A wrapper that matches nothing: the error names the same page.
				broken := &Wrapper{RecordTag: "section", RecordClass: "nope", Fields: w.Fields}
				sameExtraction(t, label+" broken", broken, pages, src.Schema)
			}
		}
	}

	for name, html := range messyPages {
		pages := []Page{{URL: "mess://" + name, HTML: html}, {URL: "mess://empty", HTML: ""}}
		sameExtraction(t, name, messyWrapper(), pages, messySchema)
		sameExtraction(t, name+" any element", &Wrapper{Fields: messyWrapper().Fields}, pages, messySchema)
		sameExtraction(t, name+" by tag", &Wrapper{RecordTag: "div", Fields: []FieldRule{{Attr: "a", Tag: "b"}, {Attr: "b"}}}, pages, messySchema)
		sameInduction(t, name, pages[0], []Annotation{{Attr: "a", Value: "kept"}, {Attr: "a", Value: " yes "}, {Attr: "b", Value: "2"}, {Attr: "b", Value: ""}})
	}
	if _, _, err := messyWrapper().Extract([]Page{{URL: "u", HTML: messyPages["content no records"]}}, messySchema); err == nil {
		t.Fatal("a page with content and no records must be reported")
	}
}

// FuzzExtractDifferential gives both extractors and both inductions the same
// arbitrary page and rules.
func FuzzExtractDifferential(f *testing.F) {
	for _, html := range messyPages {
		f.Add(html, "", "rec", "b", "a", "i", "b", "kept")
	}
	src := relation.New(datagen.RightmoveSchema())
	src.MustAppend(250000.0, "1 High St", "M1 1AA", 3, "detached", "A <lovely> home & garden.")
	src.MustAppend("£180,000", "2 Low Rd", "M1 1AB", 2, "flat", nil)
	f.Add(GeneratePages(RightmoveTemplate(), src)[0].HTML, "div", "property-card", "span", "price", "address", "", "2 Low Rd")
	f.Fuzz(func(t *testing.T, html, recTag, recClass, aTag, aClass, bTag, bClass, ann string) {
		w := &Wrapper{RecordTag: recTag, RecordClass: recClass, Fields: []FieldRule{
			{Attr: "a", Tag: aTag, Class: aClass}, {Attr: "b", Tag: bTag, Class: bClass}}}
		pages := []Page{{URL: "fuzz://1", HTML: html}, {URL: "fuzz://2", HTML: html}}
		sameExtraction(t, "extract", w, pages, messySchema)
		sameInduction(t, "induce", pages[0], []Annotation{{Attr: "a", Value: ann}, {Attr: "b", Value: strings.ToUpper(ann)}})
	})
}

// TestScriptSkipIsLinear pins that skipping script content does not copy the
// rest of the page per script: a page with 300 inline scripts and one record
// extracts in a number of allocations that does not depend on the scripts.
func TestScriptSkipIsLinear(t *testing.T) {
	page := func(scripts int) []Page {
		var b strings.Builder
		for i := 0; i < scripts; i++ {
			b.WriteString(`<script type="text/javascript">var x = "<div class=rec>";</SCRIPT >` + "\n")
		}
		b.WriteString(`<div class=rec><b class=a>only</b><i class=b>1</i></div>`)
		return []Page{{URL: "u", HTML: b.String()}}
	}
	allocs := func(pages []Page) float64 {
		return testing.AllocsPerRun(20, func() {
			rel, _, err := messyWrapper().Extract(pages, messySchema)
			if err != nil || rel.Cardinality() != 1 || rel.Tuples[0][0].Str() != "only" {
				t.Fatalf("extracted %v, %v", rel, err)
			}
		})
	}
	few, many := allocs(page(3)), allocs(page(300))
	if many > few+2 {
		t.Fatalf("300 scripts cost %.0f allocations, 3 scripts %.0f: the skip allocates per script", many, few)
	}
	sameExtraction(t, "scripts", messyWrapper(), page(300), messySchema)
}

// TestInductionIsDeterministic pins the order of tied candidate shapes: tag,
// then class. ("a", "bc") and ("ab", "c") get one vote each for v; ordered by
// the concatenation tag+class they compared equal, and map iteration order
// picked the field rule.
func TestInductionIsDeterministic(t *testing.T) {
	page := Page{URL: "mess://collision", HTML: messyPages["shape collision"]}
	anns := []Annotation{{Attr: "v", Value: "X"}, {Attr: "n", Value: "1"}, {Attr: "n", Value: "2"}}
	want := sameInduction(t, "collision", page, anns)
	if got := want.String(); got != "wrapper{record=div.r, n←i.k v←a.bc}" {
		t.Fatalf("induced %s", got)
	}
	for i := 0; i < 100; i++ {
		if w, err := InduceWrapper(page, anns); err != nil || !reflect.DeepEqual(w, want) {
			t.Fatalf("call %d induced %v (%v), first call %v", i, w, err, want)
		}
	}
}

// TestInductionTextIsNotCopiedPerLevel pins that an element's text is a
// slice of the page's words, not a copy: the same records under 50 more
// levels of elements cost induction a few allocations more, not one per
// level.
func TestInductionTextIsNotCopiedPerLevel(t *testing.T) {
	src := smallSource()
	page := GeneratePages(RightmoveTemplate(), src)[0]
	deep := Page{URL: page.URL, HTML: strings.Repeat("<div>", 50) + page.HTML + strings.Repeat("</div>", 50)}
	anns := BootstrapAnnotations(src, []int{0, 1})
	allocs := func(p Page) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := InduceWrapper(p, anns); err != nil {
				t.Fatal(err)
			}
		})
	}
	shallow, nested := allocs(page), allocs(deep)
	if nested > shallow+8 {
		t.Fatalf("50 more levels cost %.0f allocations, the page alone %.0f: text is copied per level", nested, shallow)
	}
	sameInduction(t, "deep", deep, anns)
}
