package extract

import (
	"fmt"
	"strconv"

	"vada/internal/relation"
)

// Page is one generated deep-web result page.
type Page struct {
	// URL is a synthetic identifier for provenance.
	URL string
	// HTML is the page markup.
	HTML string
}

// SiteTemplate describes how a portal renders listings: each field of the
// source schema is wrapped in an element with a distinctive class, inside a
// repeated record container — the structure wrapper induction must recover.
type SiteTemplate struct {
	// Name identifies the portal (used in URLs).
	Name string
	// RecordTag and RecordClass wrap each listing.
	RecordTag, RecordClass string
	// FieldTag and FieldClass give per-attribute wrappers, keyed by the
	// source schema's attribute names.
	FieldTag   map[string]string
	FieldClass map[string]string
	// PageSize is the number of listings per page.
	PageSize int
	// Chrome adds non-record noise (nav bars, adverts) around results.
	Chrome bool
}

// RightmoveTemplate renders the Rightmove-style card layout.
func RightmoveTemplate() SiteTemplate {
	return SiteTemplate{
		Name:        "rightmove",
		RecordTag:   "div",
		RecordClass: "property-card",
		FieldTag: map[string]string{
			"price": "span", "street": "address", "postcode": "span",
			"bedrooms": "span", "type": "span", "description": "p",
		},
		FieldClass: map[string]string{
			"price": "price", "street": "street", "postcode": "postcode",
			"bedrooms": "beds", "type": "ptype", "description": "summary",
		},
		PageSize: 25,
		Chrome:   true,
	}
}

// OnTheMarketTemplate renders the Onthemarket-style list layout.
func OnTheMarketTemplate() SiteTemplate {
	return SiteTemplate{
		Name:        "onthemarket",
		RecordTag:   "li",
		RecordClass: "result",
		FieldTag: map[string]string{
			"asking_price": "strong", "address_line": "h2", "post_code": "em",
			"num_beds": "span", "property_type": "span", "details": "div",
		},
		FieldClass: map[string]string{
			"asking_price": "otm-price", "address_line": "otm-addr", "post_code": "otm-pc",
			"num_beds": "otm-beds", "property_type": "otm-type", "details": "otm-desc",
		},
		PageSize: 20,
		Chrome:   true,
	}
}

// GeneratePages renders a source relation into paginated HTML result pages
// following the template. Null cells render as absent elements, exactly as
// portals omit missing fields.
func GeneratePages(tmpl SiteTemplate, src *relation.Relation) []Page {
	total := src.Cardinality()
	if total == 0 { // always at least one (empty) page
		return []Page{{
			URL:  fmt.Sprintf("https://%s.example/search?page=1", tmpl.Name),
			HTML: "<!DOCTYPE html>\n<html><body><ul class=\"results\"></ul></body></html>",
		}}
	}
	opening := make([]string, len(src.Schema.Attrs))
	closing := make([]string, len(src.Schema.Attrs))
	for ai, a := range src.Schema.Attrs {
		tag := tmpl.FieldTag[a.Name]
		opening[ai] = "<" + tag + ` class="` + tmpl.FieldClass[a.Name] + `">`
		closing[ai] = "</" + tag + ">"
	}
	recordOpen := "<" + tmpl.RecordTag + ` class="` + tmpl.RecordClass + `" data-idx="`
	recordClose := "</" + tmpl.RecordTag + ">\n"

	pages := make([]Page, 0, (total+tmpl.PageSize-1)/tmpl.PageSize)
	var b []byte
	for start := 0; start < total; start += tmpl.PageSize {
		end := min(start+tmpl.PageSize, total)
		page := start/tmpl.PageSize + 1
		b = append(b[:0], "<!DOCTYPE html>\n<html><head><title>"...)
		b = append(b, tmpl.Name...)
		b = append(b, " search results</title></head><body>\n"...)
		if tmpl.Chrome {
			b = append(b, `<nav class="topnav"><a href="/">Home</a><a href="/search">Search</a><span class="user">Sign in</span></nav>`+"\n"...)
			b = append(b, `<div class="advert"><p>Advertise your property with us today!</p></div>`+"\n"...)
		}
		b = append(b, `<ul class="results" data-page="`...)
		b = strconv.AppendInt(b, int64(page), 10)
		b = append(b, "\">\n"...)
		for r := start; r < end; r++ {
			b = append(b, recordOpen...)
			b = strconv.AppendInt(b, int64(r), 10)
			b = append(b, `">`...)
			t := src.Tuples[r]
			for ai := range opening {
				v := t[ai]
				if v.IsNull() {
					continue
				}
				b = append(b, opening[ai]...)
				b = appendCell(b, v)
				b = append(b, closing[ai]...)
			}
			b = append(b, recordClose...)
		}
		b = append(b, "</ul>\n"...)
		if tmpl.Chrome {
			b = append(b, `<footer class="pagefoot"><p>© portal example</p></footer>`+"\n"...)
		}
		b = append(b, "</body></html>\n"...)
		pages = append(pages, Page{
			URL:  fmt.Sprintf("https://%s.example/search?page=%d", tmpl.Name, page),
			HTML: string(b),
		})
	}
	return pages
}

// appendCell appends v's display string, escaped. Only a string can hold a
// byte to escape: numbers and booleans are appended as they are.
func appendCell(b []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindString:
		return appendEscapedHTML(b, v.Str())
	case relation.KindInt:
		return strconv.AppendInt(b, v.IntVal(), 10)
	case relation.KindFloat:
		return strconv.AppendFloat(b, v.FloatVal(), 'g', -1, 64)
	default:
		return append(b, v.String()...)
	}
}
