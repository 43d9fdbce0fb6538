package match

import (
	"math"
	"strings"
	"testing"
)

// sameNumericStats fails unless numericStats reads vals as the Sscanf form it
// replaced does (refNumericStats): lo, hi and the numeric share as bit
// patterns, because instance match scores are compared that way.
func sameNumericStats(t *testing.T, vals []string) {
	t.Helper()
	lo, hi, frac := numericStats(vals)
	wlo, whi, wfrac := refNumericStats(vals)
	if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) ||
		math.Float64bits(frac) != math.Float64bits(wfrac) {
		t.Fatalf("numericStats(%q) = %v, %v, %v; Sscanf says %v, %v, %v", vals, lo, hi, frac, wlo, whi, wfrac)
	}
}

// numericTexts are values whose numeric prefix is not obvious. The expected
// number is Sscanf's; NaN marks text it rejects.
var numericTexts = map[string]float64{
	"12 high street": 12, "1e5x": 1e5, "+.5": 0.5, "0x1p3": 8, "0X1P3": 8, "1_000": 1000, "0x_1p1": 2,
	"nan": math.NaN(), "inf": math.Inf(1), "-Infinity": math.Inf(-1), "+inf": math.Inf(1), "in": math.NaN(), "north road": math.NaN(),
	" 7": 7, "\t  7": 7, "\n7": math.NaN(), "\r\n7": math.NaN(), "\r7": 7, "": math.NaN(), " ": math.NaN(), "-": math.NaN(),
	".": math.NaN(), "5.": 5, "1e": math.NaN(), "1e+": math.NaN(), "1e999": math.NaN(), "1.5p2": 6, "1p": math.NaN(), "1p1_0": math.NaN(),
	"1P3": math.NaN(), "0x": math.NaN(), "0x.8p1": 1, "0xg": math.NaN(), "£1,200": 1200, "£": math.NaN(), "1,2,3": 123, "-0": math.Copysign(0, -1),
	"--1": math.NaN(), "+-1": math.NaN(), "n5": math.NaN(), "+nan": math.NaN(), "1..2": 1, "1.2.3": 1.2, "١٢": math.NaN(), "1\x00": 1, "\xff1": math.NaN(),
}

// TestNumericPrefix holds numericStats to the Sscanf form it replaced, value
// by value and over the whole table as one column.
func TestNumericPrefix(t *testing.T) {
	var all []string
	for text, want := range numericTexts {
		all = append(all, text)
		sameNumericStats(t, []string{text})
		lo, _, frac := numericStats([]string{text})
		switch {
		case text == "nan": // parses, as a NaN
			if frac != 1 || !math.IsNaN(lo) {
				t.Errorf("numericStats(%q) = %v (share %v), want NaN", text, lo, frac)
			}
		case math.IsNaN(want):
			if frac != 0 {
				t.Errorf("numericStats(%q) found the number %v, want none", text, lo)
			}
		default:
			if frac != 1 || math.Float64bits(lo) != math.Float64bits(want) {
				t.Errorf("numericStats(%q) = %v (share %v), want %v", text, lo, frac, want)
			}
		}
	}
	sameNumericStats(t, nil)
	// Map order differs from run to run, and with it which value is first:
	// lo and hi start from the first number, NaN and signed zeros included.
	sameNumericStats(t, all)
}

// FuzzNumericPrefix holds numericStats to the Sscanf form on arbitrary
// columns: the text split at '|'.
func FuzzNumericPrefix(f *testing.F) {
	for text := range numericTexts {
		f.Add(text)
	}
	f.Add("12 high street|£1,200|nan|-0|0|inf|1e999|7")
	f.Fuzz(func(t *testing.T, text string) {
		sameNumericStats(t, []string{text})
		sameNumericStats(t, strings.Split(text, "|"))
	})
}
