// Package parser reads the textual query and database formats used by
// the command-line tools and examples.
//
// Query syntax (Datalog-style, matching the paper's notation):
//
//	q(x) :- R(x,y), S(y,'a3')
//	q :- R(x,y), S(y)            (Boolean)
//
// Relation names begin with an upper-case letter; bare lower-case
// identifiers are variables; quoted strings ('…' or "…") and numbers
// are constants.
//
// Database syntax, one tuple per line:
//
//	+R(a1, a5)     endogenous tuple
//	-S(a3)         exogenous tuple
//	# comment      (blank lines and comments ignored)
package parser

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"

	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/rel"
)

// ParseQuery parses a conjunctive query. Errors are tagged
// qerr.ErrBadQuery.
func ParseQuery(s string) (*rel.Query, error) {
	q, err := parseQuery(s)
	return q, qerr.Tag(qerr.ErrBadQuery, err)
}

func parseQuery(s string) (*rel.Query, error) {
	parts := strings.SplitN(s, ":-", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("parser: query must contain ':-': %q", s)
	}
	headStr := strings.TrimSpace(parts[0])
	bodyStr := strings.TrimSpace(parts[1])
	q := &rel.Query{}
	// Head: name or name(args).
	if i := strings.IndexByte(headStr, '('); i >= 0 {
		if !strings.HasSuffix(headStr, ")") {
			return nil, fmt.Errorf("parser: malformed head %q", headStr)
		}
		q.Name = strings.TrimSpace(headStr[:i])
		args, err := parseTerms(headStr[i+1 : len(headStr)-1])
		if err != nil {
			return nil, fmt.Errorf("parser: head: %w", err)
		}
		q.Head = args
	} else {
		q.Name = headStr
	}
	if q.Name == "" {
		return nil, fmt.Errorf("parser: empty query name in %q", s)
	}
	atoms, err := splitAtoms(bodyStr)
	if err != nil {
		return nil, err
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("parser: empty body in %q", s)
	}
	for _, a := range atoms {
		atom, err := parseAtom(a)
		if err != nil {
			return nil, err
		}
		q.Atoms = append(q.Atoms, atom)
	}
	return q, nil
}

// splitAtoms splits "R(x,y), S(y)" at top-level commas.
func splitAtoms(s string) ([]string, error) {
	var out []string
	depth := 0
	inQuote := rune(0)
	start := 0
	for i, r := range s {
		switch {
		case inQuote != 0:
			if r == inQuote {
				inQuote = 0
			}
		case r == '\'' || r == '"':
			inQuote = r
		case r == '(':
			depth++
		case r == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("parser: unbalanced ')' in %q", s)
			}
		case r == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if depth != 0 || inQuote != 0 {
		return nil, fmt.Errorf("parser: unbalanced parentheses or quotes in %q", s)
	}
	last := strings.TrimSpace(s[start:])
	if last != "" {
		out = append(out, last)
	}
	return out, nil
}

func parseAtom(s string) (rel.Atom, error) {
	i := strings.IndexByte(s, '(')
	if i < 0 || !strings.HasSuffix(s, ")") {
		return rel.Atom{}, fmt.Errorf("parser: malformed atom %q", s)
	}
	name := strings.TrimSpace(s[:i])
	if err := checkRelName(name); err != nil {
		return rel.Atom{}, err
	}
	terms, err := parseTerms(s[i+1 : len(s)-1])
	if err != nil {
		return rel.Atom{}, fmt.Errorf("parser: atom %s: %w", name, err)
	}
	if len(terms) == 0 {
		return rel.Atom{}, fmt.Errorf("parser: atom %s has no arguments", name)
	}
	return rel.Atom{Pred: name, Terms: terms}, nil
}

func checkRelName(name string) error {
	if name == "" {
		return fmt.Errorf("parser: empty relation name")
	}
	r := []rune(name)[0]
	if !unicode.IsUpper(r) {
		return fmt.Errorf("parser: relation name %q must start with an upper-case letter", name)
	}
	return nil
}

func parseTerms(s string) ([]rel.Term, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts, err := splitAtoms(s) // same top-level comma logic
	if err != nil {
		return nil, err
	}
	out := make([]rel.Term, 0, len(parts))
	for _, p := range parts {
		t, err := parseTerm(p)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func parseTerm(s string) (rel.Term, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return rel.Term{}, fmt.Errorf("empty term")
	}
	if (s[0] == '\'' || s[0] == '"') && len(s) >= 2 && s[len(s)-1] == s[0] {
		return rel.C(rel.Value(s[1 : len(s)-1])), nil
	}
	r := []rune(s)[0]
	if unicode.IsDigit(r) {
		// Quote-free constant token. One holding both quote characters
		// (e.g. 3'a'"b") could not be re-rendered by Term.String, which
		// has no escapes; reject it so parsed queries round-trip
		// (surfaced by FuzzParseQuery, corpus input aa69d90b132c31f5).
		if strings.Contains(s, "'") && strings.Contains(s, `"`) {
			return rel.Term{}, fmt.Errorf("constant %q mixes both quote characters, which the escape-free query grammar cannot represent", s)
		}
		return rel.C(rel.Value(s)), nil
	}
	if unicode.IsLower(r) || r == '_' {
		for _, c := range s {
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
				return rel.Term{}, fmt.Errorf("invalid variable name %q", s)
			}
		}
		return rel.V(s), nil
	}
	return rel.Term{}, fmt.Errorf("cannot parse term %q (variables are lower-case, constants quoted or numeric)", s)
}

// stripComment removes a trailing '#' comment, ignoring '#' inside
// quoted values so FormatDatabase output round-trips.
func stripComment(line string) string {
	inQuote := rune(0)
	for i, r := range line {
		switch {
		case inQuote != 0:
			if r == inQuote {
				inQuote = 0
			}
		case r == '\'' || r == '"':
			inQuote = r
		case r == '#':
			return line[:i]
		}
	}
	return line
}

// ParseTupleLine parses one database line: +R(a,b) or -R(a,b).
func ParseTupleLine(line string) (relName string, endo bool, args []rel.Value, err error) {
	relName, endo, args, err = parseTupleLine(line)
	return relName, endo, args, qerr.Tag(qerr.ErrBadQuery, err)
}

func parseTupleLine(line string) (relName string, endo bool, args []rel.Value, err error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return "", false, nil, fmt.Errorf("parser: empty tuple line")
	}
	switch line[0] {
	case '+':
		endo = true
	case '-':
		endo = false
	default:
		return "", false, nil, fmt.Errorf("parser: tuple line must start with + (endogenous) or - (exogenous): %q", line)
	}
	body := strings.TrimSpace(line[1:])
	i := strings.IndexByte(body, '(')
	if i < 0 || !strings.HasSuffix(body, ")") {
		return "", false, nil, fmt.Errorf("parser: malformed tuple %q", line)
	}
	relName = strings.TrimSpace(body[:i])
	if err := checkRelName(relName); err != nil {
		return "", false, nil, err
	}
	parts, err := splitAtoms(body[i+1 : len(body)-1])
	if err != nil {
		return "", false, nil, err
	}
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if len(p) >= 2 && (p[0] == '\'' || p[0] == '"') && p[len(p)-1] == p[0] {
			p = p[1 : len(p)-1]
		}
		// The grammar has no escapes, so values holding both quote
		// characters or a line-break character are unrepresentable by
		// FormatDatabase. Tokens that would parse into one (e.g.
		// +A('0'"") — a quoted segment with trailing quoted garbage —
		// or +A(0\r0) with a stray carriage return) are rejected so
		// that everything ParseDatabase accepts round-trips. Both were
		// surfaced by FuzzParseDatabase; the minimized inputs are in
		// the checked-in fuzz corpus.
		if strings.Contains(p, "'") && strings.Contains(p, `"`) {
			return "", false, nil, fmt.Errorf("parser: value %q mixes both quote characters, which the escape-free tuple-line format cannot represent", p)
		}
		if strings.ContainsAny(p, "\r\n") {
			return "", false, nil, fmt.Errorf("parser: value %q contains a line break, which the tuple-line format cannot represent", p)
		}
		args = append(args, rel.Value(p))
	}
	if len(args) == 0 {
		return "", false, nil, fmt.Errorf("parser: tuple %q has no values", line)
	}
	return relName, endo, args, nil
}

// FormatDatabase renders a database in the textual format ParseDatabase
// reads: one "+R(a,b)" / "-S(c)" line per live tuple in insertion
// order; deleted tuples are omitted. Values containing syntax
// characters (commas, parentheses, quotes, '#', or surrounding
// whitespace) are quoted. For databases with no deletions,
// FormatDatabase and ParseDatabase round-trip: parsing the output
// reproduces the same relations, tuples, IDs, and endo flags (a
// mutated database re-parses with compacted IDs instead). Values the line-oriented,
// escape-free grammar cannot represent — ones containing a newline, a
// carriage return, or both quote characters — are reported as an error
// rather than silently emitted as unparseable text.
func FormatDatabase(db *rel.Database) (string, error) {
	var b strings.Builder
	dict := db.Dict()
	var codes []uint32
	for i := 0; i < db.NumTuples(); i++ {
		id := rel.TupleID(i)
		if !db.Live(id) {
			continue
		}
		if db.Endo(id) {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
		b.WriteString(db.RelName(id))
		b.WriteByte('(')
		codes = db.AppendCodes(codes[:0], id)
		for k, c := range codes {
			if k > 0 {
				b.WriteString(", ")
			}
			qv, err := quoteValue(string(dict.Value(c)))
			if err != nil {
				return "", fmt.Errorf("parser: tuple %s: %w", db.Render(id), err)
			}
			b.WriteString(qv)
		}
		b.WriteString(")\n")
	}
	return b.String(), nil
}

// quoteValue quotes a value when the bare form would not survive the
// tuple-line grammar, choosing the quote character the value does not
// contain. The grammar has no escapes, so a value containing a line
// break or both quote characters is not representable.
func quoteValue(s string) (string, error) {
	if strings.ContainsAny(s, "\n\r") {
		return "", fmt.Errorf("value %q contains a line break, which the tuple-line format cannot represent", s)
	}
	if s != "" && !strings.ContainsAny(s, ",()'\"# \t") && s == strings.TrimSpace(s) {
		return s, nil
	}
	if !strings.Contains(s, "'") {
		return "'" + s + "'", nil
	}
	if !strings.Contains(s, "\"") {
		return "\"" + s + "\"", nil
	}
	return "", fmt.Errorf("value %q contains both quote characters, which the escape-free tuple-line format cannot represent", s)
}

// ParseDatabase reads a database file: one tuple per line, comments
// with '#'.
func ParseDatabase(r io.Reader) (*rel.Database, error) {
	db := rel.NewDatabase()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		relName, endo, args, err := ParseTupleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, err := db.Add(relName, endo, args...); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}
