package sql

import (
	"fmt"
	"math"
	"strings"
)

// lex tokenizes the input. Keywords are not distinguished from identifiers
// here; the parser matches on the upper-cased spelling.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, pos: i})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, pos: i})
			i++
		case c == ',':
			toks = append(toks, token{kind: tokComma, pos: i})
			i++
		case c == ';':
			toks = append(toks, token{kind: tokSemi, pos: i})
			i++
		case c == '*':
			toks = append(toks, token{kind: tokStar, pos: i})
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}
		case c >= '0' && c <= '9':
			start := i
			var num int64
			overflow := false
			for i < n && input[i] >= '0' && input[i] <= '9' {
				d := int64(input[i] - '0')
				overflow = overflow || num > (math.MaxInt64-d)/10
				num = num*10 + d
				i++
			}
			// Optional duration unit suffix.
			us := i
			for i < n && isAlpha(input[i]) {
				i++
			}
			unit := strings.ToLower(input[us:i])
			if unit == "" {
				if overflow {
					return nil, fmt.Errorf("sql: number %s at offset %d does not fit in int64", input[start:i], start)
				}
				toks = append(toks, token{kind: tokNumber, num: num, pos: start})
				break
			}
			scale, ok := unitScale[unit]
			if !ok {
				return nil, fmt.Errorf("sql: unknown duration unit %q at offset %d", unit, us)
			}
			if overflow || num > math.MaxInt64/scale {
				return nil, fmt.Errorf("sql: duration %s at offset %d does not fit in int64 microseconds", input[start:i], start)
			}
			toks = append(toks, token{kind: tokDuration, num: num * scale, pos: start})
		case isAlpha(c) || c == '_':
			start := i
			for i < n && (isAlpha(input[i]) || input[i] == '_' || (input[i] >= '0' && input[i] <= '9') || input[i] == '.') {
				i++
			}
			text := input[start:i]
			toks = append(toks, token{kind: tokIdent, text: text, up: strings.ToUpper(text), pos: start})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isAlpha(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// unitScale maps duration suffixes to microseconds (the repository's event
// time unit).
var unitScale = map[string]int64{
	"us": 1,
	"ms": 1_000,
	"s":  1_000_000,
	"m":  60_000_000,
	"h":  3_600_000_000,
	"d":  86_400_000_000,
}
