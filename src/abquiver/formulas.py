"""Positive-primitive formulas and pairs, and their exact evaluation.

A formula is kept in matrix normal form  EX ybar . A xbar + B ybar = 0,
where A and B are typed matrices over the path algebra, rows typed by the
equation sorts and columns by the context/bound sorts.  All operations are
positional on the context; variable names matter only for parsing and
printing.  Equation rows that are identically zero are dropped at
construction so that syntactically different spellings of a trivial system
compare equal.
"""

from .errors import EngineError, MismatchError
from .quivers import TypedMatrix
from .scalars import check_same_ring


class PpFormula:
    """EX bound . A*context + B*bound = 0."""

    __slots__ = ("quiver", "ring", "context", "bound", "matrix_a", "matrix_b")

    def __init__(self, quiver, ring, context, bound, matrix_a, matrix_b):
        context = tuple((str(n), s) for n, s in context)
        bound = tuple((str(n), s) for n, s in bound)
        if not context:
            raise EngineError("formula context must be nonempty")
        names = [n for n, _ in context] + [n for n, _ in bound]
        if len(set(names)) != len(names):
            raise EngineError("duplicate variable names in %r" % (names,))
        for _, s in context + bound:
            quiver.check_vertex(s)
        if matrix_a.col_types != tuple(s for _, s in context):
            raise MismatchError("A columns do not match the context sorts")
        if matrix_b.col_types != tuple(s for _, s in bound):
            raise MismatchError("B columns do not match the bound sorts")
        if matrix_a.row_types != matrix_b.row_types:
            raise MismatchError("A and B disagree on equation sorts")
        check_same_ring(ring, matrix_a.ring, matrix_b.ring)
        keep = [j for j in range(matrix_a.rows)
                if not (all(x.is_zero() for x in matrix_a.entries[j])
                        and all(x.is_zero() for x in matrix_b.entries[j]))]
        if len(keep) != matrix_a.rows:
            matrix_a = matrix_a.take_rows(keep)
            matrix_b = matrix_b.take_rows(keep)
        self.quiver = quiver
        self.ring = ring
        self.context = context
        self.bound = bound
        self.matrix_a = matrix_a
        self.matrix_b = matrix_b

    # -- basic data ---------------------------------------------------------

    @property
    def context_sorts(self):
        return tuple(s for _, s in self.context)

    @property
    def bound_sorts(self):
        return tuple(s for _, s in self.bound)

    @property
    def equation_sorts(self):
        return self.matrix_a.row_types

    def __eq__(self, other):
        return (isinstance(other, PpFormula)
                and self.quiver == other.quiver and self.ring == other.ring
                and self.context == other.context and self.bound == other.bound
                and self.matrix_a == other.matrix_a
                and self.matrix_b == other.matrix_b)

    def __hash__(self):
        return hash((self.ring, self.context, self.bound,
                     self.matrix_a, self.matrix_b))

    def __repr__(self):
        return "PpFormula(%s | %d equations, %d bound)" % (
            ", ".join("%s:%s" % c for c in self.context),
            self.matrix_a.rows, len(self.bound))

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, quiver, ring, context):
        """x = x: the full solution set on the given context."""
        sorts = tuple(s for _, s in context)
        return cls(quiver, ring, context, (),
                   TypedMatrix.zero(quiver, ring, (), sorts),
                   TypedMatrix.zero(quiver, ring, (), ()))

    @classmethod
    def zero(cls, quiver, ring, context):
        """x = 0 in every coordinate."""
        sorts = tuple(s for _, s in context)
        return cls(quiver, ring, context, (),
                   TypedMatrix.identity(quiver, ring, sorts),
                   TypedMatrix.zero(quiver, ring, sorts, ()))

    # -- helpers ------------------------------------------------------------

    def _taken_names(self):
        return {n for n, _ in self.context} | {n for n, _ in self.bound}

    def rename_context(self, new_names):
        new_names = tuple(new_names)
        if len(new_names) != len(self.context):
            raise MismatchError("wrong number of context names")
        context = tuple((n, s) for n, (_, s) in zip(new_names, self.context))
        bound = _avoid(self.bound, set(new_names))
        return PpFormula(self.quiver, self.ring, context, bound,
                         self.matrix_a, self.matrix_b)

    def check_same_context(self, other):
        if self.quiver != other.quiver:
            raise MismatchError("formulas over different quivers")
        check_same_ring(self.ring, other.ring)
        if self.context_sorts != other.context_sorts:
            raise MismatchError("context mismatch: %s vs %s"
                                % (self.context_sorts, other.context_sorts))


def _avoid(pairs, taken):
    """Rename (name, sort) pairs away from the taken names, deterministically."""
    out = []
    taken = set(taken)
    for name, sort in pairs:
        candidate = name
        k = 2
        while candidate in taken:
            candidate = "%s_%d" % (name, k)
            k += 1
        taken.add(candidate)
        out.append((candidate, sort))
    return tuple(out)


def conjoin(first, second):
    """Stack the equation systems of two formulas on the same context."""
    first.check_same_context(second)
    quiver, ring = first.quiver, first.ring
    bound = first.bound + _avoid(second.bound,
                                 first._taken_names()
                                 | {n for n, _ in second.context})
    a = first.matrix_a.vstack(second.matrix_a)
    b_top = first.matrix_b.hstack(
        TypedMatrix.zero(quiver, ring, first.equation_sorts,
                         second.bound_sorts))
    b_bot = TypedMatrix.zero(quiver, ring, second.equation_sorts,
                             first.bound_sorts).hstack(second.matrix_b)
    return PpFormula(quiver, ring, first.context, bound, a, b_top.vstack(b_bot))


def project(formula, keep_indices):
    """Existentially quantify away the context variables not in keep."""
    keep = list(keep_indices)
    if len(set(keep)) != len(keep) or any(
            i < 0 or i >= len(formula.context) for i in keep):
        raise MismatchError("bad projection index set %r" % (keep,))
    if not keep:
        raise EngineError("projection must keep at least one variable")
    dropped = [i for i in range(len(formula.context)) if i not in keep]
    context = tuple(formula.context[i] for i in keep)
    bound = _avoid(tuple(formula.context[i] for i in dropped),
                   {n for n, _ in context}) + formula.bound
    a = formula.matrix_a.take_columns(keep)
    b = formula.matrix_a.take_columns(dropped).hstack(formula.matrix_b)
    return PpFormula(formula.quiver, formula.ring, context, bound, a, b)


def lift(formula, new_context, positions):
    """Reinterpret on a larger context; positions[i] is the index in
    new_context where the i-th context variable lands."""
    positions = list(positions)
    if len(positions) != len(formula.context):
        raise MismatchError("positions do not cover the context")
    new_context = tuple(new_context)
    for i, pos in enumerate(positions):
        if new_context[pos][1] != formula.context[i][1]:
            raise MismatchError("sort mismatch when lifting variable %d" % i)
    quiver, ring = formula.quiver, formula.ring
    sorts = tuple(s for _, s in new_context)
    eq = formula.equation_sorts
    zero = TypedMatrix.zero(quiver, ring, eq, sorts)
    grid = [list(row) for row in zero.entries]
    for i, pos in enumerate(positions):
        for j in range(len(eq)):
            grid[j][pos] = grid[j][pos].add(formula.matrix_a.entries[j][i])
    a = TypedMatrix(quiver, ring, eq, sorts, grid)
    bound = _avoid(formula.bound, {n for n, _ in new_context})
    return PpFormula(quiver, ring, new_context, bound, a, formula.matrix_b)


def substitute_zero(formula, zero_indices):
    """Set the given context variables to 0 and drop them from the context."""
    zero_set = set(zero_indices)
    keep = [i for i in range(len(formula.context)) if i not in zero_set]
    if not keep:
        raise EngineError("cannot zero out the whole context")
    context = tuple(formula.context[i] for i in keep)
    a = formula.matrix_a.take_columns(keep)
    return PpFormula(formula.quiver, formula.ring, context, formula.bound,
                     a, formula.matrix_b)


def sum_formula(first, second):
    """The pointwise sum {u + v : first(u), second(v)} on the shared context."""
    first.check_same_context(second)
    quiver, ring = first.quiver, first.ring
    ctx = first.context
    sorts = first.context_sorts
    taken = {n for n, _ in ctx}
    u_vars = _avoid(tuple(("u%d" % i, s) for i, (_, s) in enumerate(ctx)), taken)
    taken |= {n for n, _ in u_vars}
    v_vars = _avoid(tuple(("v%d" % i, s) for i, (_, s) in enumerate(ctx)), taken)
    taken |= {n for n, _ in v_vars}
    b1 = _avoid(first.bound, taken)
    taken |= {n for n, _ in b1}
    b2 = _avoid(second.bound, taken)
    bound = u_vars + v_vars + b1 + b2
    ident = TypedMatrix.identity(quiver, ring, sorts)
    zero_ss = TypedMatrix.zero(quiver, ring, sorts, sorts)

    def zero(rows, cols):
        return TypedMatrix.zero(quiver, ring, rows, cols)

    # Row block 1: x - u - v = 0.
    a_rows = [ident]
    b_rows = [ident.neg().hstack(ident.neg())
              .hstack(zero(sorts, first.bound_sorts))
              .hstack(zero(sorts, second.bound_sorts))]
    # Row block 2: first's system on (u, b1).
    a_rows.append(zero(first.equation_sorts, sorts))
    b_rows.append(first.matrix_a
                  .hstack(zero(first.equation_sorts, sorts))
                  .hstack(first.matrix_b)
                  .hstack(zero(first.equation_sorts, second.bound_sorts)))
    # Row block 3: second's system on (v, b2).
    a_rows.append(zero(second.equation_sorts, sorts))
    b_rows.append(zero(second.equation_sorts, sorts)
                  .hstack(second.matrix_a)
                  .hstack(zero(second.equation_sorts, first.bound_sorts))
                  .hstack(second.matrix_b))
    a = a_rows[0]
    for block in a_rows[1:]:
        a = a.vstack(block)
    b = b_rows[0]
    for block in b_rows[1:]:
        b = b.vstack(block)
    return PpFormula(quiver, ring, ctx, bound, a, b)


def equality_graph(quiver, ring, context_pairs):
    """The formula x = x' on a doubled context (x vars then x' vars)."""
    left = tuple(context_pairs)
    sorts = tuple(s for _, s in left)
    right = _avoid(tuple((n + "p", s) for n, s in left), {n for n, _ in left})
    ident = TypedMatrix.identity(quiver, ring, sorts)
    a = ident.hstack(ident.neg())
    return PpFormula(quiver, ring, left + right, (),
                     a, TypedMatrix.zero(quiver, ring, sorts, ()))


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(formula, representation):
    """The solution set of the formula in the representation, as a subobject
    of the fiber product of the context sorts."""
    if formula.quiver != representation.quiver:
        raise MismatchError("formula and representation quivers differ")
    check_same_ring(formula.ring, representation.ring)
    ambient = representation.ambient(formula.context_sorts)
    a_t = representation.evaluate_typed_matrix(formula.matrix_a)
    b_t = representation.evaluate_typed_matrix(formula.matrix_b)
    return ambient.kernel(a_t.hstack(b_t),
                          representation.ambient(formula.equation_sorts))


class PpPair:
    """An ordered pair top/bottom with bottom implying top, normalized by
    replacing bottom with (bottom AND top) at construction."""

    __slots__ = ("top", "bottom")

    def __init__(self, top, bottom):
        top.check_same_context(bottom)
        bottom = conjoin(bottom.rename_context([n for n, _ in top.context]),
                         top)
        self.top = top
        self.bottom = bottom

    @property
    def quiver(self):
        return self.top.quiver

    @property
    def ring(self):
        return self.top.ring

    @property
    def context(self):
        return self.top.context

    def __eq__(self, other):
        return (isinstance(other, PpPair) and self.top == other.top
                and self.bottom == other.bottom)

    def __hash__(self):
        return hash((self.top, self.bottom))

    def __repr__(self):
        return "PpPair(%r / %r)" % (self.top, self.bottom)


def pair_value(pair, representation):
    """Invariants of top(T) / bottom(T)."""
    larger = evaluate(pair.top, representation)
    smaller = evaluate(pair.bottom, representation)
    return larger.quotient_by(smaller)


def is_closed(pair, representation):
    return pair_value(pair, representation).is_trivial()


def implies_all(phi, psi):
    """Whether phi -> psi holds in every module over the path algebra,
    decided through a free realization of phi."""
    phi.check_same_context(psi)
    from .fpmodules import element_satisfies, free_realization
    module, witness = free_realization(phi)
    return element_satisfies(module, witness, psi)

