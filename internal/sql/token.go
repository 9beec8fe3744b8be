// Package sql parses the OpenMLDB SQL dialect the paper uses to express
// online interval joins (§II-A): a SELECT with windowed aggregations over a
// WINDOW ... AS (UNION <probe> PARTITION BY ... ORDER BY ... ROWS_RANGE
// BETWEEN <offset> PRECEDING AND <offset> FOLLOWING) clause. The parser
// produces a QuerySpec that the public API turns directly into an engine
// configuration.
//
// One extension beyond OpenMLDB's published grammar is accepted: a trailing
// LATENESS <duration> clause inside the window definition, which sets the
// out-of-order bound (OpenMLDB configures this out of band).
package sql

import "fmt"

// kind enumerates token kinds.
type kind uint8

const (
	tokEOF kind = iota
	tokIdent
	tokNumber   // bare integer, e.g. 10
	tokDuration // integer with unit suffix, e.g. 1s, 500ms
	tokLParen
	tokRParen
	tokComma
	tokSemi
	tokStar
)

func (k kind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokDuration:
		return "duration"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokStar:
		return "'*'"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// token is one lexical unit. For tokDuration, num holds the value in
// microseconds; for tokNumber, the integer; for tokIdent text holds the
// original spelling and up holds its upper-cased form for keyword
// comparison.
type token struct {
	kind kind
	text string
	up   string
	num  int64
	pos  int // byte offset, for error messages
}
