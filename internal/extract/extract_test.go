package extract

import (
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

func TestParseHTMLBasics(t *testing.T) {
	doc := refParseHTML(`<html><body><div class="a b"><p id="x">hello <b>world</b></p></div></body></html>`)
	ps := doc.Find("p", "")
	if len(ps) != 1 {
		t.Fatalf("found %d <p>", len(ps))
	}
	if got := ps[0].TextContent(); got != "hello world" {
		t.Fatalf("TextContent = %q", got)
	}
	divs := doc.Find("div", "b")
	if len(divs) != 1 || !divs[0].HasClass("a") {
		t.Fatal("class matching wrong")
	}
	if doc.FindFirst("span", "") != nil {
		t.Fatal("FindFirst on absent tag should be nil")
	}
}

func TestParseHTMLToleratesMess(t *testing.T) {
	messy := `<!DOCTYPE html><!-- comment --><html><body>
<p>unclosed paragraph
<div class=bare>bare attr value</div>
</notopened>
<br><img src="x.png">
<script>var x = "<div>not a div</div>";</script>
<p>after script</p>
</body>`
	doc := refParseHTML(messy)
	if len(doc.Find("div", "bare")) != 1 {
		t.Fatal("unquoted attribute lost")
	}
	if len(doc.Find("div", "")) != 1 {
		t.Fatal("script content must not produce elements")
	}
	ps := doc.Find("p", "")
	if len(ps) != 2 {
		t.Fatalf("got %d <p>, want 2", len(ps))
	}
}

func TestParseHTMLEntities(t *testing.T) {
	doc := refParseHTML(`<p>&pound;250,000 &amp; more &lt;ok&gt;</p>`)
	got := doc.FindFirst("p", "").TextContent()
	if got != "£250,000 & more <ok>" {
		t.Fatalf("entities = %q", got)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	s := `a & b < c > d "quoted"`
	doc := refParseHTML("<p>" + string(appendEscapedHTML(nil, s)) + "</p>")
	if got := doc.FindFirst("p", "").TextContent(); got != s {
		t.Fatalf("escape round trip = %q, want %q", got, s)
	}
}

// TestEscapeHTMLAllocations pins that escaping a cell allocates nothing:
// GeneratePages escapes every cell into its page's buffer.
func TestEscapeHTMLAllocations(t *testing.T) {
	buf := make([]byte, 0, 128)
	for _, s := range []string{"12 High Street, Manchester", `Tom & Jerry's <"flat">`} {
		if allocs := testing.AllocsPerRun(100, func() { buf = appendEscapedHTML(buf[:0], s) }); allocs != 0 {
			t.Fatalf("escaping %q into a buffer with room allocates %.0f times, want 0", s, allocs)
		}
	}
}

func smallSource() *relation.Relation {
	r := relation.New(datagen.RightmoveSchema())
	r.MustAppend(250000.0, "1 High St", "M1 1AA", 3, "detached", "A lovely home with garden.")
	r.MustAppend("£180,000", "2 Low Rd", "M1 1AB", 2, "flat", "Compact city flat.")
	r.MustAppend(nil, "3 Mid Ln", "M2 2BB", 4, "terraced", nil)
	return r
}

func TestGeneratePagesStructure(t *testing.T) {
	src := smallSource()
	pages := GeneratePages(RightmoveTemplate(), src)
	if len(pages) != 1 {
		t.Fatalf("pages = %d", len(pages))
	}
	doc := refParseHTML(pages[0].HTML)
	cards := doc.Find("div", "property-card")
	if len(cards) != 3 {
		t.Fatalf("cards = %d, want 3", len(cards))
	}
	// Null cells render as absent elements.
	if cards[2].FindFirst("span", "price") != nil {
		t.Fatal("null price should be absent")
	}
	if cards[0].FindFirst("span", "price").TextContent() != "250000" {
		t.Fatalf("price text = %q", cards[0].FindFirst("span", "price").TextContent())
	}
}

func TestGeneratePagesPagination(t *testing.T) {
	src := relation.New(datagen.RightmoveSchema())
	for i := 0; i < 60; i++ {
		src.MustAppend(100000.0+float64(i), "1 A Rd", "M1 1AA", 2, "flat", "d")
	}
	pages := GeneratePages(RightmoveTemplate(), src) // page size 25
	if len(pages) != 3 {
		t.Fatalf("pages = %d, want 3", len(pages))
	}
	total := 0
	for _, p := range pages {
		total += len(refParseHTML(p.HTML).Find("div", "property-card"))
	}
	if total != 60 {
		t.Fatalf("records across pages = %d", total)
	}
}

func TestGeneratePagesEmptySource(t *testing.T) {
	src := relation.New(datagen.RightmoveSchema())
	pages := GeneratePages(RightmoveTemplate(), src)
	if len(pages) != 1 {
		t.Fatal("empty source should yield one empty page")
	}
}

func TestInduceWrapperFindsStructure(t *testing.T) {
	src := smallSource()
	pages := GeneratePages(RightmoveTemplate(), src)
	anns := BootstrapAnnotations(src, []int{0, 1})
	w, err := InduceWrapper(pages[0], anns)
	if err != nil {
		t.Fatal(err)
	}
	if w.RecordTag != "div" || w.RecordClass != "property-card" {
		t.Fatalf("record boundary = %s.%s", w.RecordTag, w.RecordClass)
	}
	ruleFor := map[string]FieldRule{}
	for _, f := range w.Fields {
		ruleFor[f.Attr] = f
	}
	if r := ruleFor["price"]; r.Tag != "span" || r.Class != "price" {
		t.Fatalf("price rule = %+v", r)
	}
	if r := ruleFor["street"]; r.Tag != "address" {
		t.Fatalf("street rule = %+v", r)
	}
}

func TestInduceWrapperErrors(t *testing.T) {
	src := smallSource()
	pages := GeneratePages(RightmoveTemplate(), src)
	if _, err := InduceWrapper(pages[0], nil); err == nil {
		t.Error("no annotations should fail")
	}
	if _, err := InduceWrapper(pages[0], []Annotation{{Attr: "price", Value: "not on the page"}}); err == nil {
		t.Error("unfindable annotation should fail")
	}
}

// extractSource runs a source end to end the way the extraction transducer
// does: render it through its template, induce a wrapper from example rows,
// and extract everything back.
func extractSource(tmpl SiteTemplate, src *relation.Relation, exampleRows []int) (*relation.Relation, *Wrapper, []Provenance, error) {
	pages := GeneratePages(tmpl, src)
	w, err := InduceWrapper(pages[0], BootstrapAnnotations(src, exampleRows))
	if err != nil {
		return nil, nil, nil, err
	}
	rel, prov, err := w.Extract(pages, src.Schema)
	return rel, w, prov, err
}

func TestExtractRoundTrip(t *testing.T) {
	src := smallSource()
	rel, w, prov, err := extractSource(RightmoveTemplate(), src, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != src.Cardinality() {
		t.Fatalf("extracted %d rows, want %d (wrapper %s)", rel.Cardinality(), src.Cardinality(), w)
	}
	if len(prov) != rel.Cardinality() {
		t.Fatalf("provenance %d entries", len(prov))
	}
	for i := range src.Tuples {
		for j := range src.Tuples[i] {
			want, got := src.Tuples[i][j], rel.Tuples[i][j]
			if want.IsNull() {
				if !got.IsNull() {
					t.Errorf("row %d col %d: want null, got %v", i, j, got)
				}
				continue
			}
			// Text round trip normalises whitespace.
			wantText := strings.Join(strings.Fields(want.String()), " ")
			gotText := strings.Join(strings.Fields(got.String()), " ")
			if wantText != gotText {
				t.Errorf("row %d col %d: %q != %q", i, j, gotText, wantText)
			}
		}
	}
}

func TestExtractReinfersTypes(t *testing.T) {
	src := smallSource()
	rel, _, _, err := extractSource(RightmoveTemplate(), src, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// 250000.0 serialised as "250000" comes back numeric (int) and equals
	// the original float numerically.
	v := rel.Tuples[0][0]
	if !v.Equal(relation.Float(250000)) {
		t.Fatalf("price round trip = %v", v)
	}
	// "£180,000" survives as a string.
	if rel.Tuples[1][0].Kind() != relation.KindString {
		t.Fatalf("formatted price should stay string: %v", rel.Tuples[1][0])
	}
}

func TestExtractScenarioScale(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 120
	sc := datagen.Generate(cfg)
	rel, _, _, err := extractSource(RightmoveTemplate(), sc.Rightmove, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != sc.Rightmove.Cardinality() {
		t.Fatalf("extracted %d, want %d", rel.Cardinality(), sc.Rightmove.Cardinality())
	}
	relOTM, _, _, err := extractSource(OnTheMarketTemplate(), sc.OnTheMarket, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if relOTM.Cardinality() != sc.OnTheMarket.Cardinality() {
		t.Fatalf("otm extracted %d, want %d", relOTM.Cardinality(), sc.OnTheMarket.Cardinality())
	}
}

func TestExtractBrokenWrapperReported(t *testing.T) {
	src := smallSource()
	pages := GeneratePages(RightmoveTemplate(), src)
	w := &Wrapper{RecordTag: "section", RecordClass: "nope",
		Fields: []FieldRule{{Attr: "price", Tag: "span", Class: "price"}}}
	_, _, err := w.Extract(pages, src.Schema)
	if err == nil {
		t.Fatal("non-matching wrapper on non-empty page should error")
	}
}

func TestBootstrapAnnotationsSkipsNulls(t *testing.T) {
	src := smallSource()
	anns := BootstrapAnnotations(src, []int{2}) // row 2 has null price and description
	for _, a := range anns {
		if a.Attr == "price" || a.Attr == "description" {
			t.Fatalf("null cell should not produce annotation: %+v", a)
		}
	}
	if len(BootstrapAnnotations(src, []int{99})) != 0 {
		t.Fatal("out-of-range rows should be skipped")
	}
}
