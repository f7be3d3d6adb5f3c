//go:build !race

package sqlx

// poison is a no-op outside race builds (see poison_race.go).
func poison(*arena, [4]int) {}
