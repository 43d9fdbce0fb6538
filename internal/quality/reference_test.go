package quality

// The reference implementation of completeness: Completeness and
// CompletenessAll as they were before the nulls of every attribute were
// counted in one pass — a copy of the column per attribute, counted on its
// own. Kept verbatim (names apart) as the oracle of TestCompletenessDifferential.

import "vada/internal/relation"

func refCompleteness(rel *relation.Relation, attr string) (float64, error) {
	col, err := rel.Column(attr)
	if err != nil {
		return 0, err
	}
	if len(col) == 0 {
		return 0, nil
	}
	n := 0
	for _, v := range col {
		if !v.IsNull() {
			n++
		}
	}
	return float64(n) / float64(len(col)), nil
}

func refCompletenessAll(rel *relation.Relation) map[string]float64 {
	if rel == nil {
		return map[string]float64{}
	}
	out := make(map[string]float64, rel.Schema.Arity())
	for _, a := range rel.Schema.Attrs {
		c, err := refCompleteness(rel, a.Name)
		if err == nil {
			out[a.Name] = c
		}
	}
	return out
}
