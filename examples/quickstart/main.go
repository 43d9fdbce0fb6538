// Quickstart: wrangle two small in-memory sources into a target schema with
// a fully automatic bootstrap — the smallest possible use of the public API.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"vada"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to out.
func run(out io.Writer) error {
	// Two sources describing the same domain with different attribute
	// names, plus a lookup table.
	shop1 := vada.NewRelation(vada.NewSchema("shopa", "name", "price", "city"))
	shop1.MustAppend("espresso machine", 129.0, "Manchester")
	shop1.MustAppend("kettle", 25.0, "Leeds")
	shop1.MustAppend("toaster", 35.0, "Manchester")

	shop2 := vada.NewRelation(vada.NewSchema("shopb", "product_name", "asking_price", "town"))
	shop2.MustAppend("blender", 59.0, "Leeds")
	shop2.MustAppend("kettle", 23.0, "Leeds")

	// What the user wants: name, price, city.
	target := vada.NewSchema("catalogue", "name", "price:float", "city")

	// With a three-attribute target, accept sources that match just two
	// attributes (shopb's "town" is not name-matchable to "city").
	w := vada.New(vada.WithMinCoverage(2))
	w.RegisterSource(shop1)
	w.RegisterSource(shop2)
	w.SetTargetSchema(target)

	// Step 1 of the pay-as-you-go lifecycle: automatic bootstrapping. The
	// orchestrator runs schema matching, mapping generation, execution,
	// quality assessment, selection and fusion — all driven by declared
	// input dependencies, with no pipeline wiring here.
	if _, err := w.Run(context.Background()); err != nil {
		return err
	}

	fmt.Fprintln(out, "wrangled result:")
	fmt.Fprintln(out, w.ResultClean())

	fmt.Fprintln(out, "orchestration trace:")
	fmt.Fprint(out, vada.TraceString(w.Trace()))
	return nil
}
