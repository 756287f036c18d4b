// Package sdcquery implements the interactive statistical database of the
// paper's Section 3: users submit statistical queries (COUNT, SUM, AVG with
// predicates) and the data owner applies an inference-control strategy —
// query-set-size restriction, Chin–Ozsoyoglu auditing ([7]), output
// perturbation (Duncan & Mukherjee, [14]), interval camouflage (Gopal,
// Garfinkel & Goes, [16]), Denning's random sample queries, overlap
// restriction, or differential privacy (calibrated Laplace/Gaussian noise
// with a per-principal ε-budget ledger; see Protection and internal/dp).
// The server records every query it sees, which is precisely why this
// architecture offers no user privacy: "All SDC methods for interactive
// statistical databases assume that the data owner ... exactly knows the
// queries submitted by users."
//
// Queries are submitted with Server.Ask, or Server.AskAs when the caller
// has a budget-accounting identity — DifferentialPrivacy requires one and
// refuses anonymous queries with dp.ErrNoPrincipal; once a principal's ε
// budget is spent further queries fail with an error wrapping
// dp.ErrBudgetExhausted and release nothing.
//
// NewHandler exposes the server over HTTP. The untrusted-user surface
// (POST /query, POST /sql) goes through the configured inference control
// and, under DifferentialPrivacy, identifies callers by the
// X-Privacy3D-Principal header (429 with the remaining ε once the budget
// is spent). POST /protect — a seeded masked release of the served
// microdata — is an owner-only operation gated by the HandlerConfig
// bearer token and disabled entirely without one, and every release has
// Identifier-role columns stripped first: direct identifiers never ship,
// whatever masking method the owner picks.
//
// The package also implements the Schlörer tracker attack ([22]) that makes
// size restriction alone insufficient.
package sdcquery

import (
	"fmt"
	"strings"

	"privacy3d/internal/dataset"
)

// Op is a comparison operator in a query predicate.
type Op int

const (
	Lt Op = iota // <
	Le           // <=
	Gt           // >
	Ge           // >=
	Eq           // ==
	Ne           // !=
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Negate returns the complementary operator (¬(x < v) ≡ x >= v, …), the
// property the individual tracker attack exploits to express set
// differences with pure conjunctions.
func (o Op) Negate() Op {
	switch o {
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	case Eq:
		return Ne
	default:
		return Eq
	}
}

// Cond is one atomic condition: column OP value. For numeric columns V is
// used; for categorical columns S is used (with Str set) and only Eq/Ne are
// meaningful.
type Cond struct {
	Col string
	Op  Op
	V   float64
	S   string
	// Str marks the condition as a string comparison even when S is the
	// empty string. Without it `c = ""` and `c = 0` are indistinguishable
	// and would render to the same canonical string — which is the answer
	// cache and camouflage key, so the ambiguity was a correctness bug,
	// not a cosmetic one. A non-empty S implies a string comparison whether
	// or not Str is set, keeping hand-built literals working; and for
	// backward compatibility Compile still accepts a fully zero-valued
	// comparison (Str unset, S == "", V == 0) against a categorical column
	// as an empty-string comparison — only V != 0 is a kind mismatch. Note
	// that such a condition renders numerically (`c = 0`), so set Str when
	// an empty-string match is intended.
	Str bool
}

// IsString reports whether the condition carries a string value (S), as
// opposed to a numeric one (V).
func (c Cond) IsString() bool { return c.Str || c.S != "" }

// Negate returns the logical complement of the condition.
func (c Cond) Negate() Cond {
	c.Op = c.Op.Negate()
	return c
}

// String renders the condition kind-explicitly: string values are always
// quoted (including the empty string), numeric values never are, so two
// distinct conditions can never share a rendering.
func (c Cond) String() string {
	if c.IsString() {
		return fmt.Sprintf("%s %s %q", c.Col, c.Op, c.S)
	}
	return fmt.Sprintf("%s %s %g", c.Col, c.Op, c.V)
}

// Predicate is a conjunction of conditions; the empty predicate matches
// every record.
type Predicate []Cond

// String renders the predicate.
func (p Predicate) String() string {
	if len(p) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// And returns p extended with extra conditions.
func (p Predicate) And(conds ...Cond) Predicate {
	out := make(Predicate, 0, len(p)+len(conds))
	out = append(out, p...)
	out = append(out, conds...)
	return out
}

// compiledCond is one condition with its column index and kind resolved.
type compiledCond struct {
	col     int
	numeric bool
	op      Op
	v       float64
	s       string
}

// CompiledPredicate is a Predicate resolved once against a schema: column
// indices, kinds, and operator validity are checked up front, so per-row
// matching is pure comparisons — no map lookups, no error paths. The seed
// Predicate.Match re-resolved every column for every row of every
// condition, which dominated the scan cost on wide predicates.
type CompiledPredicate struct {
	conds []compiledCond
}

// Compile resolves the predicate against a schema. Unknown columns,
// ordered operators on categorical columns, and value/column kind
// mismatches are reported here, once, instead of per row.
func (p Predicate) Compile(attrs []dataset.Attribute) (*CompiledPredicate, error) {
	cc := make([]compiledCond, len(p))
	for i, c := range p {
		j := attrIndex(attrs, c.Col)
		if j < 0 {
			return nil, fmt.Errorf("sdcquery: unknown column %q", c.Col)
		}
		out := compiledCond{col: j, op: c.Op}
		if attrs[j].Kind == dataset.Numeric {
			if c.IsString() {
				return nil, fmt.Errorf("sdcquery: string value %q for numeric column %q", c.S, c.Col)
			}
			out.numeric = true
			out.v = c.V
		} else {
			if c.Op != Eq && c.Op != Ne {
				return nil, fmt.Errorf("sdcquery: operator %s not valid for categorical column %q", c.Op, c.Col)
			}
			if !c.IsString() && c.V != 0 {
				return nil, fmt.Errorf("sdcquery: numeric value %g for categorical column %q", c.V, c.Col)
			}
			// A fully zero-valued Cond (Str unset, S=="", V==0) compiles as
			// an empty-string comparison — the behavior hand-built literals
			// had before Str existed.
			out.s = c.S
		}
		cc[i] = out
	}
	return &CompiledPredicate{conds: cc}, nil
}

// Match reports whether record i of d satisfies the compiled predicate.
// d must have the schema the predicate was compiled against.
func (cp *CompiledPredicate) Match(d *dataset.Dataset, i int) bool {
	for _, c := range cp.conds {
		var ok bool
		if c.numeric {
			v := d.Float(i, c.col)
			switch c.op {
			case Lt:
				ok = v < c.v
			case Le:
				ok = v <= c.v
			case Gt:
				ok = v > c.v
			case Ge:
				ok = v >= c.v
			case Eq:
				ok = v == c.v
			case Ne:
				ok = v != c.v
			}
		} else {
			ok = (d.Cat(i, c.col) == c.s) == (c.op == Eq)
		}
		if !ok {
			return false
		}
	}
	return true
}

// attrIndex returns the column index of name in attrs, or -1.
func attrIndex(attrs []dataset.Attribute, name string) int {
	for j, a := range attrs {
		if a.Name == name {
			return j
		}
	}
	return -1
}

// Match reports whether record i of d satisfies the predicate. Unknown
// columns or operator/kind mismatches yield an error. For repeated calls
// compile once with Compile and use CompiledPredicate.Match.
func (p Predicate) Match(d *dataset.Dataset, i int) (bool, error) {
	cp, err := p.Compile(d.Attrs())
	if err != nil {
		return false, err
	}
	return cp.Match(d, i), nil
}

// QuerySet returns the indices of records matching the predicate. The
// predicate is compiled once; the sweep is per-row comparisons only.
func (p Predicate) QuerySet(d *dataset.Dataset) ([]int, error) {
	cp, err := p.Compile(d.Attrs())
	if err != nil {
		return nil, err
	}
	var rows []int
	for i := 0; i < d.Rows(); i++ {
		if cp.Match(d, i) {
			rows = append(rows, i)
		}
	}
	return rows, nil
}

// Agg is the aggregate function of a statistical query.
type Agg int

const (
	Count Agg = iota
	Sum
	Avg
)

// String renders the aggregate name.
func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Query is one statistical query: Agg(Attr) WHERE Where. COUNT ignores Attr.
type Query struct {
	Agg   Agg
	Attr  string
	Where Predicate
}

// String renders the query in SQL-ish form (used as the canonical key for
// logging and camouflage determinism).
func (q Query) String() string {
	attr := q.Attr
	if q.Agg == Count {
		attr = "*"
	}
	return fmt.Sprintf("SELECT %s(%s) WHERE %s", q.Agg, attr, q.Where)
}

// aggColumn validates the query's aggregate against the schema and returns
// the column index to sum, or -1 for COUNT (which reads no column). The
// server's bitmap path and Query.Evaluate share this validation, so both
// report identical errors.
func aggColumn(attrs []dataset.Attribute, q Query) (int, error) {
	if q.Agg == Count {
		return -1, nil
	}
	if q.Agg != Sum && q.Agg != Avg {
		return 0, fmt.Errorf("sdcquery: unsupported aggregate %v", q.Agg)
	}
	j := attrIndex(attrs, q.Attr)
	if j < 0 {
		return 0, fmt.Errorf("sdcquery: unknown attribute %q", q.Attr)
	}
	if attrs[j].Kind != dataset.Numeric {
		return 0, fmt.Errorf("sdcquery: %s over non-numeric attribute %q", q.Agg, q.Attr)
	}
	return j, nil
}

// finishAgg turns the accumulated (count, sum) of a sweep into the query's
// answer — the single aggregate finisher shared by Query.Evaluate and the
// server's bitmap path, so every evaluator agrees byte for byte.
func finishAgg(agg Agg, count int, sum float64) (float64, error) {
	switch agg {
	case Count:
		return float64(count), nil
	case Sum:
		return sum, nil
	case Avg:
		if count == 0 {
			return 0, fmt.Errorf("sdcquery: AVG over empty query set")
		}
		return sum / float64(count), nil
	default:
		return 0, fmt.Errorf("sdcquery: unsupported aggregate %v", agg)
	}
}

// Evaluate computes the true (unprotected) answer of the query on d in one
// compiled sweep: the predicate is compiled once, and count and sum
// accumulate together row by row. The seed ran two passes — QuerySet
// building an index slice, then a re-walk summing it — with the predicate
// re-resolving columns per row. It is also the reference the server's
// indexed answers must match byte for byte.
func (q Query) Evaluate(d *dataset.Dataset) (float64, error) {
	cp, err := q.Where.Compile(d.Attrs())
	if err != nil {
		return 0, err
	}
	j, err := aggColumn(d.Attrs(), q)
	if err != nil {
		return 0, err
	}
	var count int
	var sum float64
	for i := 0; i < d.Rows(); i++ {
		if !cp.Match(d, i) {
			continue
		}
		count++
		if j >= 0 {
			sum += d.Float(i, j)
		}
	}
	return finishAgg(q.Agg, count, sum)
}
