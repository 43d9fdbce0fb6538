package cfd

import "vada/internal/relation"

// RepairBounds are the key attributes and the edit bound of fuzzy key repair,
// which PrepareReference fixes, as values the external tests vary.
type RepairBounds struct {
	KeyAttr, RefKeyAttr string
	MaxEditDistance     int
}

// ConstantRepairBounds are the bounds PrepareReference repairs within.
var ConstantRepairBounds = RepairBounds{keyAttr, refKeyAttr, maxEditDistance}

// PrepareReferenceWithin is PrepareReference within b.
func PrepareReferenceWithin(ref *relation.Relation, cfds []CFD, b RepairBounds) *Reference {
	return prepareReference(ref, cfds, b.KeyAttr, b.RefKeyAttr, b.MaxEditDistance)
}
