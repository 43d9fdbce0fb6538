//go:build kbcheck

package relation

import (
	"fmt"
	"strings"
	"testing"
)

// TestKBCheckCatchesStaleView proves the tag can fail: a view asked for again
// after its column was written to, or after a row was added, panics naming
// the column.
func TestKBCheckCatchesStaleView(t *testing.T) {
	for name, write := range map[string]func(r *Relation){
		"cell":   func(r *Relation) { r.Tuples[1][1] = String("written") },
		"append": func(r *Relation) { r.MustAppend(1, "x", "y") },
	} {
		for view, ask := range map[string]func(r *Relation){
			"exact":  func(r *Relation) { r.Exact(1) },
			"folded": func(r *Relation) { r.Folded(1) },
		} {
			r := viewsFixture(5, 1)
			ask(r)
			r.Tuples[1][2] = String("another column") // not the viewed one: no offence
			ask(r)
			write(r)
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "kbcheck") || !strings.Contains(msg, `"palette"`) {
						t.Fatalf("%s after the %s view: want a kbcheck panic naming the column, got %s", name, view, msg)
					}
				}()
				ask(r)
			}()
		}
	}
}
