package sql

import (
	"fmt"
	"strings"
	"testing"

	"oij/internal/agg"
)

// paperQuery is the exact SQL from §II-A of the paper.
const paperQuery = `
SELECT sum(col2) over w1 FROM S
WINDOW w1 AS (
UNION R
PARTITION BY key
ORDER BY timestamp
ROWS_RANGE
BETWEEN 1s PRECEDING AND 1s FOLLOWING);`

func TestParsePaperQuery(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 1 {
		t.Fatalf("aggs = %d", len(q.Aggs))
	}
	a := q.Aggs[0]
	if a.Func != agg.Sum || a.Column != "col2" || a.Window != "w1" {
		t.Fatalf("agg = %+v", a)
	}
	if q.BaseTable != "S" || q.ProbeTable != "R" {
		t.Fatalf("tables = %s, %s", q.BaseTable, q.ProbeTable)
	}
	if q.PartitionBy != "key" || q.OrderBy != "timestamp" {
		t.Fatalf("partition=%s order=%s", q.PartitionBy, q.OrderBy)
	}
	if q.Window.Pre != 1_000_000 || q.Window.Fol != 1_000_000 {
		t.Fatalf("window = %+v", q.Window)
	}
}

func TestParseCurrentRow(t *testing.T) {
	q, err := Parse(`SELECT count(x) OVER w FROM base WINDOW w AS (
		UNION probe PARTITION BY uid ORDER BY ts
		ROWS_RANGE BETWEEN 500ms PRECEDING AND CURRENT ROW)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Window.Pre != 500_000 || q.Window.Fol != 0 {
		t.Fatalf("window = %+v", q.Window)
	}
	if q.Aggs[0].Func != agg.Count {
		t.Fatalf("func = %v", q.Aggs[0].Func)
	}
}

func TestParseCurrentToFollowing(t *testing.T) {
	q, err := Parse(`SELECT avg(v) OVER w FROM b WINDOW w AS (
		UNION p PARTITION BY k ORDER BY t
		ROWS_RANGE BETWEEN CURRENT ROW AND 2m FOLLOWING)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Window.Pre != 0 || q.Window.Fol != 120_000_000 {
		t.Fatalf("window = %+v", q.Window)
	}
}

func TestParseLatenessExtension(t *testing.T) {
	q, err := Parse(`SELECT sum(v) OVER w FROM b WINDOW w AS (
		UNION p PARTITION BY k ORDER BY t
		ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW
		LATENESS 2s)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Window.Lateness != 2_000_000 {
		t.Fatalf("lateness = %d", q.Window.Lateness)
	}
}

func TestParseMultipleAggregations(t *testing.T) {
	q, err := Parse(`SELECT sum(amount) OVER w, count(*) OVER w, max(amount) OVER w
		FROM actions WINDOW w AS (
		UNION orders PARTITION BY user_id ORDER BY event_time
		ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 3 {
		t.Fatalf("aggs = %d", len(q.Aggs))
	}
	if q.Aggs[1].Column != "*" || q.Aggs[1].Func != agg.Count {
		t.Fatalf("count(*) parsed as %+v", q.Aggs[1])
	}
	if q.Aggs[2].Func != agg.Max {
		t.Fatalf("max parsed as %+v", q.Aggs[2])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select SUM(a) over w from b window w as (
		union p partition by k order by t
		rows_range between 1s preceding and current row)`); err != nil {
		t.Fatal(err)
	}
}

func TestParseComments(t *testing.T) {
	if _, err := Parse(`SELECT sum(a) OVER w -- the feature
		FROM b WINDOW w AS (
		UNION p PARTITION BY k ORDER BY t -- join spec
		ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)`); err != nil {
		t.Fatal(err)
	}
}

func TestParseDurationUnits(t *testing.T) {
	for unit, us := range map[string]int64{"us": 1, "ms": 1e3, "s": 1e6, "m": 6e7, "h": 3.6e9, "d": 8.64e10} {
		q, err := Parse(`SELECT sum(a) OVER w FROM b WINDOW w AS (
			UNION p PARTITION BY k ORDER BY t
			ROWS_RANGE BETWEEN 3` + unit + ` PRECEDING AND CURRENT ROW)`)
		if err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
		if q.Window.Pre != 3*us {
			t.Errorf("%s: Pre = %d, want %d", unit, q.Window.Pre, 3*us)
		}
	}
}

// TestParseLiteralOverflow: a duration whose microsecond value does not
// fit in int64 is rejected with an error naming its offset, instead of
// wrapping into a huge or negative window; so is a window whose
// 2·(PRE+FOL)+lateness horizon would wrap.
func TestParseLiteralOverflow(t *testing.T) {
	const maxHalf = "4611686018427387903us" // (2^63-1)/2
	cases := []struct {
		name    string
		between string // the ROWS_RANGE BETWEEN ... clause and what follows
		literal string // the offending literal ("" for accepted queries)
		wantErr string
	}{
		{"unit scale wraps positive", "100000000000000000ms PRECEDING AND CURRENT ROW", "100000000000000000ms", "does not fit"},
		{"unit scale wraps negative", "9999999999999h PRECEDING AND CURRENT ROW", "9999999999999h", "does not fit"},
		{"digits wrap", "99999999999999999999us PRECEDING AND CURRENT ROW", "99999999999999999999us", "does not fit"},
		{"following bound", "CURRENT ROW AND 106751992d FOLLOWING", "106751992d", "does not fit"},
		{"lateness", "1s PRECEDING AND CURRENT ROW LATENESS 2562047789h", "2562047789h", "does not fit"},
		{"horizon wraps", "4611686018427387904us PRECEDING AND CURRENT ROW", "", "overflows"},
		{"horizon wraps with lateness", "3074457345618258602us PRECEDING AND CURRENT ROW LATENESS 3074457345618258604us", "", "overflows"},
		{"horizon at the limit", maxHalf + " PRECEDING AND CURRENT ROW", "", ""},
		{"horizon at the limit with lateness", "3074457345618258602us PRECEDING AND CURRENT ROW LATENESS 3074457345618258603us", "", ""},
		{"largest day count", "106751991d PRECEDING AND CURRENT ROW", "", "overflows"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			query := `SELECT sum(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN ` + c.between + `)`
			q, err := Parse(query)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if h := 2*q.Window.Len() + q.Window.Lateness; h < 0 {
					t.Fatalf("accepted window %v has a negative horizon %d", q.Window, h)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted with window %v", q.Window)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
			if c.literal != "" {
				if off := fmt.Sprintf("offset %d", strings.Index(query, c.literal)); !strings.Contains(err.Error(), off) {
					t.Fatalf("error %q does not name %s", err, off)
				}
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":               ``,
		"unknown agg":         `SELECT median(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)`,
		"missing FROM":        `SELECT sum(a) OVER w`,
		"bad unit":            `SELECT sum(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN 1parsec PRECEDING AND CURRENT ROW)`,
		"wrong window name":   `SELECT sum(a) OVER w2 FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)`,
		"empty window":        `SELECT sum(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN CURRENT ROW AND CURRENT ROW)`,
		"inverted bounds":     `SELECT sum(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN 1s FOLLOWING AND 1s PRECEDING)`,
		"trailing garbage":    `SELECT sum(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW) extra`,
		"stray character":     `SELECT sum(a) OVER w FROM b WINDOW w @`,
		"lateness not a time": `SELECT sum(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW LATENESS x)`,
	}
	for name, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

func TestErrorMentionsOffset(t *testing.T) {
	_, err := Parse(`SELECT sum(a) OVER w FROM b WINDOW w AS (UNION p PARTITION BY k ORDER BY t ROWS_RANGE AROUND 1s PRECEDING AND CURRENT ROW)`)
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error lacks position info: %v", err)
	}
}

func TestParseExcludeCurrentTime(t *testing.T) {
	q, err := Parse(`SELECT sum(v) OVER w FROM b WINDOW w AS (
		UNION p PARTITION BY k ORDER BY t
		ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW
		EXCLUDE CURRENT_TIME LATENESS 1s)`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Window.ExcludeCurrentTime || q.Window.Lateness != 1_000_000 {
		t.Fatalf("window = %+v", q.Window)
	}
	// Clause order is free.
	q2, err := Parse(`SELECT sum(v) OVER w FROM b WINDOW w AS (
		UNION p PARTITION BY k ORDER BY t
		ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW
		LATENESS 1s EXCLUDE CURRENT_TIME)`)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.Window.ExcludeCurrentTime {
		t.Fatal("clause order not free")
	}
	// EXCLUDE CURRENT_TIME is incompatible with a FOLLOWING bound.
	if _, err := Parse(`SELECT sum(v) OVER w FROM b WINDOW w AS (
		UNION p PARTITION BY k ORDER BY t
		ROWS_RANGE BETWEEN 10s PRECEDING AND 1s FOLLOWING
		EXCLUDE CURRENT_TIME)`); err == nil {
		t.Fatal("EXCLUDE CURRENT_TIME with FOLLOWING accepted")
	}
	// Garbage after EXCLUDE.
	if _, err := Parse(`SELECT sum(v) OVER w FROM b WINDOW w AS (
		UNION p PARTITION BY k ORDER BY t
		ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW
		EXCLUDE EVERYTHING)`); err == nil {
		t.Fatal("EXCLUDE EVERYTHING accepted")
	}
}

func TestParseLastValue(t *testing.T) {
	q, err := Parse(`SELECT last_value(price) OVER w FROM quotes WINDOW w AS (
		UNION trades PARTITION BY sym ORDER BY ts
		ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggs[0].Func != agg.Last {
		t.Fatalf("func = %v", q.Aggs[0].Func)
	}
}
