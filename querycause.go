package querycause

import (
	"fmt"
	"io"
	"strings"

	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/datalog"
	"github.com/querycause/querycause/internal/lineage"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/rewrite"
	"github.com/querycause/querycause/internal/shape"
)

// Core relational types.
type (
	// Database is a set of relations of tuples flagged endogenous
	// (candidate causes) or exogenous (context).
	Database = rel.Database
	// Query is a conjunctive query; Boolean when its head is empty.
	Query = rel.Query
	// Atom is one relational subgoal of a query.
	Atom = rel.Atom
	// Term is a variable or constant in an atom.
	Term = rel.Term
	// Tuple is a database row plus its causal status.
	Tuple = rel.Tuple
	// TupleID identifies a tuple within its database.
	TupleID = rel.TupleID
	// Value is a constant of the active domain.
	Value = rel.Value
	// Explanation is the causal verdict for one tuple: its
	// responsibility, minimum contingency size, and the method used.
	Explanation = core.Explanation
	// Mode selects the responsibility strategy (ModeAuto, ModeExact,
	// ModePaper).
	Mode = core.Mode
	// Method reports how a responsibility was computed.
	Method = core.Method
	// Lineage is a positive-DNF lineage expression over tuple variables.
	Lineage = lineage.DNF
	// Program is a stratified Datalog¬ program (Theorem 3.4 output).
	Program = datalog.Program
	// Certificate is a dichotomy classification with a replayable proof.
	Certificate = rewrite.Certificate
	// Class is the dichotomy classification of a query.
	Class = rewrite.Class
)

// Responsibility modes.
const (
	// ModeAuto uses Algorithm 1 (max-flow) when soundly applicable and
	// exact search otherwise. The default.
	ModeAuto = core.ModeAuto
	// ModeExact always uses exact branch-and-bound search.
	ModeExact = core.ModeExact
	// ModePaper follows the paper's Definition 4.9 weakening literally;
	// see the fidelity notes in doc.go for where this can diverge from
	// Definition 2.3.
	ModePaper = core.ModePaper
)

// Computation methods (Explanation.Method).
const (
	MethodNone           = core.MethodNone
	MethodCounterfactual = core.MethodCounterfactual
	MethodFlow           = core.MethodFlow
	MethodExact          = core.MethodExact
	MethodWhyNo          = core.MethodWhyNo
)

// Dichotomy classes (Certificate.Class).
const (
	ClassLinear       = rewrite.ClassLinear
	ClassWeaklyLinear = rewrite.ClassWeaklyLinear
	ClassNPHard       = rewrite.ClassNPHard
	ClassSelfJoinHard = rewrite.ClassSelfJoinHard
	ClassSelfJoinOpen = rewrite.ClassSelfJoinOpen
	ClassUnresolved   = rewrite.ClassUnresolved
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return rel.NewDatabase() }

// V builds a variable term; C builds a constant term.
func V(name string) Term { return rel.V(name) }

// C builds a constant term.
func C(v Value) Term { return rel.C(v) }

// NewAtom builds a query atom R(t1,…,tk).
func NewAtom(pred string, terms ...Term) Atom { return rel.NewAtom(pred, terms...) }

// NewBooleanQuery builds a Boolean conjunctive query from atoms.
func NewBooleanQuery(atoms ...Atom) *Query { return rel.NewBoolean(atoms...) }

// ParseQuery parses "q(x) :- R(x,y), S(y,'a3')" syntax.
func ParseQuery(s string) (*Query, error) { return parser.ParseQuery(s) }

// ParseDatabase reads a tuple-per-line database ("+R(a,b)" endogenous,
// "-R(a,b)" exogenous, '#' comments).
func ParseDatabase(r io.Reader) (*Database, error) { return parser.ParseDatabase(r) }

// Answers evaluates a non-Boolean query and groups its valuations,
// each a list of witness tuple IDs, by head value, in order of the
// head values.
func Answers(db *Database, q *Query) ([]rel.Answer, error) { return ra.Answers(db, q) }

// CausesFO computes the causes of a Boolean query with the generated
// stratified Datalog¬ program of Theorem 3.4 (rather than through the
// lineage) and returns the program alongside, e.g. for display. The two
// methods agree; see the cross-validation tests.
func CausesFO(db *Database, q *Query) ([]TupleID, *Program, error) {
	return causegen.Causes(db, q)
}

// CauseProgram generates the Theorem 3.4 cause program for q without
// evaluating it. Hints from db prune refinements that cannot match
// (Corollary 3.7 then yields a purely positive program).
func CauseProgram(db *Database, q *Query) (*Program, error) {
	return causegen.Generate(q, causegen.HintsFromDB(db))
}

// Classify computes the responsibility dichotomy classification
// (Corollary 4.14) of a query under the paper's rules. The endo
// function flags which relations are endogenous; constants in the query
// are immaterial.
func Classify(q *Query, endo func(relName string) bool) (*Certificate, error) {
	return rewrite.Classify(shape.FromQuery(q, endo))
}

// ClassifySound is Classify under the sound domination rule used by
// ModeAuto (see the fidelity notes in doc.go).
func ClassifySound(q *Query, endo func(relName string) bool) (*Certificate, error) {
	return rewrite.ClassifySound(shape.FromQuery(q, endo))
}

// FormatExplanations renders a ranking as the paper's Fig. 2b table.
func FormatExplanations(db *Database, exps []Explanation) string {
	var b strings.Builder
	b.WriteString("  ρ_t    tuple\n")
	for _, e := range exps {
		fmt.Fprintf(&b, "  %.3f  %s\n", e.Rho, db.Render(e.Tuple))
	}
	return b.String()
}
