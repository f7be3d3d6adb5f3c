package textmine_test

import (
	"fmt"

	"repro/internal/textmine"
)

func ExampleJaroWinkler() {
	fmt.Printf("%.3f\n", textmine.JaroWinkler("MARTHA", "MARHTA"))
	// Output:
	// 0.961
}

func ExampleEntityRecognizer() {
	er := textmine.NewEntityRecognizer([]string{"hemoglobin", "insulin receptor"})
	for _, m := range er.Extract("Hemoglobin binds the insulin receptor near TP53.") {
		fmt.Printf("%s (%s)\n", m.Text, m.Source)
	}
	// Output:
	// Hemoglobin (dict)
	// insulin receptor (dict)
	// TP53 (pattern)
}

func ExampleEditDistance() {
	fmt.Println(textmine.EditDistance("kitten", "sitting"))
	// Output:
	// 3
}
