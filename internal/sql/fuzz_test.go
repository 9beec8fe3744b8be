package sql

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the parser. Parse must not panic, and
// a query it accepts must carry a window that passes Validate and whose
// 2·(PRE+FOL)+lateness horizon — what WAL retention and Scale-OIJ's
// eviction compute — has not wrapped negative.
//
// The seed corpus is the paper query, the same query at the largest PRE
// whose horizon fits (one digit away from wrapping), and every raw-string
// literal in sql_test.go, so each query a unit test parses is also a seed.
//
//	go test -fuzz=FuzzParse -fuzztime=10s ./internal/sql
func FuzzParse(f *testing.F) {
	f.Add(paperQuery)
	f.Add(strings.Replace(paperQuery, "1s PRECEDING AND 1s FOLLOWING", "4611686018427387903us PRECEDING AND CURRENT ROW", 1))
	src, err := os.ReadFile("sql_test.go")
	if err != nil {
		f.Fatal(err)
	}
	for _, lit := range regexp.MustCompile("`[^`]*`").FindAll(src, -1) {
		f.Add(string(lit[1 : len(lit)-1]))
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		if err := q.Window.Validate(); err != nil {
			t.Fatalf("accepted %q with an invalid window: %v", input, err)
		}
		if h := 2*q.Window.Len() + q.Window.Lateness; h < 0 {
			t.Fatalf("accepted %q with window %v: horizon %d wrapped", input, q.Window, h)
		}
	})
}
