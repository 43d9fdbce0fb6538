//go:build !kbcheck

package relation

// checkViews is off without the kbcheck build tag: a view is built without a
// checksum and handed out without a check. See encoding.go.
const checkViews = false
