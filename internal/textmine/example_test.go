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

func ExampleEditDistance() {
	fmt.Println(textmine.EditDistance("kitten", "sitting"))
	// Output:
	// 3
}
