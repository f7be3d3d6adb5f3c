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
