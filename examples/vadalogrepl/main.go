// Vadalogrepl exercises the Vadalog reasoner directly: recursion,
// stratified negation, aggregation and Datalog± existentials — the language
// features the architecture leans on for dependencies, orchestration and
// mappings (§2 of the paper).
package main

import (
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
	// A small organisational EDB.
	edb := vada.MapEDB{
		"manages": {
			vada.NewTuple("ada", "bob"),
			vada.NewTuple("ada", "cara"),
			vada.NewTuple("bob", "dan"),
			vada.NewTuple("cara", "eve"),
		},
		"salary": {
			vada.NewTuple("ada", 90),
			vada.NewTuple("bob", 70),
			vada.NewTuple("cara", 72),
			vada.NewTuple("dan", 50),
			vada.NewTuple("eve", 52),
		},
	}

	program := `
% Recursion: the reporting chain.
reports(X, Y) :- manages(X, Y).
reports(X, Z) :- reports(X, Y), manages(Y, Z).

% Stratified negation: leaves manage nobody.
manager(X) :- manages(X, _).
leaf(X) :- salary(X, _), not manager(X).

% Aggregation: payroll under each manager.
payroll(M, sum(S)) :- reports(M, E), salary(E, S).
headcount(M, count(E)) :- reports(M, E).

% Arithmetic in rules: 10% raise proposals for leaves.
proposal(X, R) :- leaf(X), salary(X, S), R = S + S / 10.

% A Datalog± existential: every manager gets an (invented) budget code.
budgetcode(M, Code) :- manager(M).
`
	prog, err := vada.ParseVadalog(program)
	if err != nil {
		return err
	}
	res, err := vada.NewEngine().Run(prog, edb)
	if err != nil {
		return err
	}

	for _, pred := range []string{"reports", "leaf", "payroll", "headcount", "proposal", "budgetcode"} {
		fmt.Fprintf(out, "%s:\n", pred)
		for _, f := range res.Facts(pred) {
			fmt.Fprintf(out, "  %v\n", f)
		}
	}

	// Labelled nulls are recognisable values.
	for _, f := range res.Facts("budgetcode") {
		if !vada.IsLabelledNull(f[1]) {
			return fmt.Errorf("expected labelled null, got %v", f[1])
		}
	}

	// Querying.
	q, err := vada.ParseQuery(`?- payroll(M, S), S > 120.`)
	if err != nil {
		return err
	}
	answers, err := res.QueryResult(q)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "managers with payroll > 120:")
	for _, b := range answers {
		fmt.Fprintf(out, "  %v: %v\n", b["M"], b["S"])
	}
	return nil
}
