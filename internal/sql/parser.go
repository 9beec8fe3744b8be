package sql

import (
	"fmt"

	"oij/internal/agg"
	"oij/internal/tuple"
	"oij/internal/window"
)

// Aggregation is one windowed select item, e.g. sum(col2) OVER w1.
type Aggregation struct {
	Func   agg.Func // the aggregation operator
	Column string   // aggregated column name
	Window string   // the OVER target window name
}

// QuerySpec is the parsed form of an online-interval-join query.
type QuerySpec struct {
	// Aggs are the windowed aggregations in select order.
	Aggs []Aggregation
	// BaseTable is the FROM table (the base stream S).
	BaseTable string
	// ProbeTable is the UNION table (the probe stream R).
	ProbeTable string
	// WindowName is the defined window's name.
	WindowName string
	// PartitionBy is the join-key column.
	PartitionBy string
	// OrderBy is the event-time column.
	OrderBy string
	// Window carries PRE/FOL (and LATENESS, if the extension clause was
	// present) in microseconds.
	Window window.Spec
}

// Parse parses one OIJ query in the OpenMLDB dialect.
func Parse(input string) (*QuerySpec, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("sql: offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// expectKeyword consumes an identifier with the given upper-case spelling.
func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.up != kw {
		return p.errf(t, "expected %s, got %s %q", kw, t.kind, t.text)
	}
	return nil
}

// expectIdent consumes a non-keyword identifier and returns its spelling.
func (p *parser) expectIdent(what string) (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", p.errf(t, "expected %s, got %s", what, t.kind)
	}
	return t.text, nil
}

func (p *parser) expect(k kind) error {
	t := p.next()
	if t.kind != k {
		return p.errf(t, "expected %s, got %s %q", k, t.kind, t.text)
	}
	return nil
}

// query = SELECT aggList FROM ident WINDOW ident AS ( windowDef ) [;]
func (p *parser) query() (*QuerySpec, error) {
	q := &QuerySpec{}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	for {
		a, err := p.aggregation()
		if err != nil {
			return nil, err
		}
		q.Aggs = append(q.Aggs, a)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	base, err := p.expectIdent("base table name")
	if err != nil {
		return nil, err
	}
	q.BaseTable = base

	if err := p.expectKeyword("WINDOW"); err != nil {
		return nil, err
	}
	wname, err := p.expectIdent("window name")
	if err != nil {
		return nil, err
	}
	q.WindowName = wname
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if err := p.windowDef(q); err != nil {
		return nil, err
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if p.peek().kind == tokSemi {
		p.next()
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected trailing input")
	}

	// Semantic checks.
	for _, a := range q.Aggs {
		if a.Window != q.WindowName {
			return nil, fmt.Errorf("sql: aggregation over undefined window %q (defined: %q)", a.Window, q.WindowName)
		}
	}
	if err := q.Window.Validate(); err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return q, nil
}

// aggregation = func ( column ) OVER window
func (p *parser) aggregation() (Aggregation, error) {
	var a Aggregation
	fnTok := p.next()
	if fnTok.kind != tokIdent {
		return a, p.errf(fnTok, "expected aggregation function, got %s", fnTok.kind)
	}
	fn, err := agg.Parse(string(lower(fnTok.text)))
	if err != nil {
		return a, p.errf(fnTok, "%v", err)
	}
	a.Func = fn
	if err := p.expect(tokLParen); err != nil {
		return a, err
	}
	if p.peek().kind == tokStar {
		p.next()
		a.Column = "*"
	} else {
		col, err := p.expectIdent("column name")
		if err != nil {
			return a, err
		}
		a.Column = col
	}
	if err := p.expect(tokRParen); err != nil {
		return a, err
	}
	if err := p.expectKeyword("OVER"); err != nil {
		return a, err
	}
	w, err := p.expectIdent("window name")
	if err != nil {
		return a, err
	}
	a.Window = w
	return a, nil
}

// windowDef = UNION ident PARTITION BY ident ORDER BY ident
//
//	ROWS_RANGE BETWEEN bound AND bound [LATENESS duration]
func (p *parser) windowDef(q *QuerySpec) error {
	if err := p.expectKeyword("UNION"); err != nil {
		return err
	}
	probe, err := p.expectIdent("probe table name")
	if err != nil {
		return err
	}
	q.ProbeTable = probe

	if err := p.expectKeyword("PARTITION"); err != nil {
		return err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return err
	}
	part, err := p.expectIdent("partition column")
	if err != nil {
		return err
	}
	q.PartitionBy = part

	if err := p.expectKeyword("ORDER"); err != nil {
		return err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return err
	}
	ord, err := p.expectIdent("order column")
	if err != nil {
		return err
	}
	q.OrderBy = ord

	if err := p.expectKeyword("ROWS_RANGE"); err != nil {
		return err
	}
	if err := p.expectKeyword("BETWEEN"); err != nil {
		return err
	}
	pre, preKind, err := p.bound()
	if err != nil {
		return err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return err
	}
	fol, folKind, err := p.bound()
	if err != nil {
		return err
	}
	switch {
	case preKind == boundPreceding && folKind == boundFollowing:
		q.Window.Pre, q.Window.Fol = pre, fol
	case preKind == boundPreceding && folKind == boundCurrent:
		q.Window.Pre, q.Window.Fol = pre, 0
	case preKind == boundCurrent && folKind == boundFollowing:
		q.Window.Pre, q.Window.Fol = 0, fol
	default:
		return fmt.Errorf("sql: window bounds must run from PRECEDING/CURRENT to CURRENT/FOLLOWING")
	}

	// Optional trailing clauses in any order: OpenMLDB's EXCLUDE
	// CURRENT_TIME and the repository's LATENESS <duration> extension.
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return nil
		}
		switch t.up {
		case "LATENESS":
			p.next()
			d := p.next()
			if d.kind != tokDuration {
				return p.errf(d, "expected duration after LATENESS")
			}
			q.Window.Lateness = tuple.Time(d.num)
		case "EXCLUDE":
			p.next()
			what := p.next()
			if what.kind != tokIdent || what.up != "CURRENT_TIME" {
				return p.errf(what, "expected CURRENT_TIME after EXCLUDE")
			}
			q.Window.ExcludeCurrentTime = true
		default:
			return nil
		}
	}
}

type boundKind uint8

const (
	boundPreceding boundKind = iota
	boundFollowing
	boundCurrent
)

// bound = duration PRECEDING | duration FOLLOWING | CURRENT ROW
func (p *parser) bound() (tuple.Time, boundKind, error) {
	t := p.next()
	switch {
	case t.kind == tokDuration:
		dir := p.next()
		if dir.kind != tokIdent {
			return 0, 0, p.errf(dir, "expected PRECEDING or FOLLOWING")
		}
		switch dir.up {
		case "PRECEDING":
			return tuple.Time(t.num), boundPreceding, nil
		case "FOLLOWING":
			return tuple.Time(t.num), boundFollowing, nil
		default:
			return 0, 0, p.errf(dir, "expected PRECEDING or FOLLOWING, got %q", dir.text)
		}
	case t.kind == tokIdent && t.up == "CURRENT":
		if err := p.expectKeyword("ROW"); err != nil {
			return 0, 0, err
		}
		return 0, boundCurrent, nil
	default:
		return 0, 0, p.errf(t, "expected a duration bound or CURRENT ROW")
	}
}

func lower(s string) []byte {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return b
}
