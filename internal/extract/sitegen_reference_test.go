package extract

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// EscapeHTML escapes text as the reference renderer did, with a replacer.
func EscapeHTML(s string) string { return escapeReplacer.Replace(s) }

var escapeReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// generatePagesReference is GeneratePages as it was written with fmt: one
// Fprintf per record and per cell, the attribute names and tags looked up per
// row. It is the differential reference of GeneratePages.
func generatePagesReference(tmpl SiteTemplate, src *relation.Relation) []Page {
	var pages []Page
	total := src.Cardinality()
	for start := 0; start < total; start += tmpl.PageSize {
		end := start + tmpl.PageSize
		if end > total {
			end = total
		}
		var b strings.Builder
		b.WriteString("<!DOCTYPE html>\n<html><head><title>")
		b.WriteString(tmpl.Name)
		b.WriteString(" search results</title></head><body>\n")
		if tmpl.Chrome {
			b.WriteString(`<nav class="topnav"><a href="/">Home</a><a href="/search">Search</a><span class="user">Sign in</span></nav>` + "\n")
			b.WriteString(`<div class="advert"><p>Advertise your property with us today!</p></div>` + "\n")
		}
		fmt.Fprintf(&b, `<ul class="results" data-page="%d">`+"\n", start/tmpl.PageSize+1)
		for r := start; r < end; r++ {
			fmt.Fprintf(&b, `<%s class="%s" data-idx="%d">`, tmpl.RecordTag, tmpl.RecordClass, r)
			for ai, attr := range src.Schema.AttrNames() {
				v := src.Tuples[r][ai]
				if v.IsNull() {
					continue
				}
				tag, class := tmpl.FieldTag[attr], tmpl.FieldClass[attr]
				fmt.Fprintf(&b, `<%s class="%s">%s</%s>`, tag, class, EscapeHTML(v.String()), tag)
			}
			fmt.Fprintf(&b, "</%s>\n", tmpl.RecordTag)
		}
		b.WriteString("</ul>\n")
		if tmpl.Chrome {
			b.WriteString(`<footer class="pagefoot"><p>© portal example</p></footer>` + "\n")
		}
		b.WriteString("</body></html>\n")
		pages = append(pages, Page{
			URL:  fmt.Sprintf("https://%s.example/search?page=%d", tmpl.Name, start/tmpl.PageSize+1),
			HTML: b.String(),
		})
	}
	if len(pages) == 0 { // always at least one (empty) page
		pages = append(pages, Page{
			URL:  fmt.Sprintf("https://%s.example/search?page=1", tmpl.Name),
			HTML: "<!DOCTYPE html>\n<html><body><ul class=\"results\"></ul></body></html>",
		})
	}
	return pages
}

// samePages fails unless GeneratePages and the reference render the same
// pages: the same number, and every URL and every page's HTML byte-identical.
func samePages(t *testing.T, label string, tmpl SiteTemplate, src *relation.Relation) {
	t.Helper()
	got, want := GeneratePages(tmpl, src), generatePagesReference(tmpl, src)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].URL != want[i].URL {
			t.Fatalf("%s: page %d URL %q, reference %q", label, i, got[i].URL, want[i].URL)
		}
		if got[i].HTML != want[i].HTML {
			t.Fatalf("%s: page %d HTML\n%s\nreference\n%s", label, i, got[i].HTML, want[i].HTML)
		}
	}
}

// TestGeneratePagesDifferential renders generated scenarios through both
// portal templates, at sizes around the page boundaries, with and without
// chrome.
func TestGeneratePagesDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := datagen.DefaultConfig()
		cfg.NProperties, cfg.Seed = 1200, seed
		sc := datagen.Generate(cfg)
		for _, portal := range []struct {
			tmpl SiteTemplate
			src  *relation.Relation
		}{{RightmoveTemplate(), sc.Rightmove}, {OnTheMarketTemplate(), sc.OnTheMarket}} {
			for _, n := range []int{0, 1, 19, 20, 21, 25, 26, 600} {
				if n > portal.src.Cardinality() {
					t.Fatalf("%s seed=%d: source has only %d rows", portal.tmpl.Name, seed, portal.src.Cardinality())
				}
				src := &relation.Relation{Schema: portal.src.Schema, Tuples: portal.src.Tuples[:n]}
				for _, chrome := range []bool{true, false} {
					tmpl := portal.tmpl
					tmpl.Chrome = chrome
					samePages(t, fmt.Sprintf("%s n=%d seed=%d chrome=%v", tmpl.Name, n, seed, chrome), tmpl, src)
				}
			}
		}
	}
}

// FuzzGeneratePagesDifferential renders arbitrary relations: each byte of
// cells picks one cell's kind and payload — null, ints, floats from raw bits
// (NaN and the infinities included), text with the bytes HTML escapes, and
// non-ASCII text — over a portal's schema plus an attribute its template
// has no tag for, at page sizes 1–30, with and without chrome. No cells is
// the empty relation.
func FuzzGeneratePagesDifferential(f *testing.F) {
	f.Add([]byte{}, "", int64(0), uint64(0), uint8(0), true, false)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, `a <b> & "c" 'd'`, int64(-42), math.Float64bits(2.5), uint8(1), true, false)
	f.Add([]byte("every kind of cell, again and again"), "£180,000 – ☃ \xff", int64(math.MinInt64),
		math.Float64bits(math.NaN()), uint8(24), false, true)
	f.Add([]byte{3, 9, 15, 21, 27, 33, 39}, "&amp;&lt;", int64(1), math.Float64bits(math.Inf(-1)), uint8(29), true, true)
	f.Fuzz(func(t *testing.T, cells []byte, text string, n int64, bits uint64, pageSize uint8, chrome, otm bool) {
		tmpl, schema := RightmoveTemplate(), datagen.RightmoveSchema()
		if otm {
			tmpl, schema = OnTheMarketTemplate(), datagen.OnTheMarketSchema()
		}
		tmpl.PageSize, tmpl.Chrome = int(pageSize%30)+1, chrome
		schema.Attrs = append(schema.Attrs[:len(schema.Attrs):len(schema.Attrs)], relation.Attribute{Name: "note", Type: relation.KindString})
		src := relation.New(schema)
		arity := schema.Arity()
		for len(cells) >= arity {
			row := make(relation.Tuple, arity)
			for i, c := range cells[:arity] {
				row[i] = fuzzCell(c, text, n, bits)
			}
			src.Tuples = append(src.Tuples, row)
			cells = cells[arity:]
		}
		samePages(t, "fuzz", tmpl, src)
	})
}

// fuzzCell is the cell byte c picks.
func fuzzCell(c byte, text string, n int64, bits uint64) relation.Value {
	switch c % 7 {
	case 0:
		return relation.Null()
	case 1:
		return relation.Int(n + int64(c))
	case 2:
		return relation.Float(math.Float64frombits(bits ^ uint64(c>>3)))
	case 3:
		return relation.String(text)
	case 4:
		return relation.Bool(c&8 != 0)
	case 5:
		return relation.String(`<a href="x">Tom & Jerry's</a> £ ☃`[c%30:])
	default:
		return relation.Float(float64(n) / float64(c))
	}
}
