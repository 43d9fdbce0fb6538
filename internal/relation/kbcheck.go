//go:build kbcheck

package relation

// checkViews makes every request for a column view verify that the column is
// as it was when the view was built (see encoding.go).
const checkViews = true
