"""Exact rational vectors and symmetric forms."""

import sys
from fractions import Fraction
from random import Random

import pytest

from singvol import (DomainError, MalformedInputError, QVector, SingularSystemError, SymForm, rat,
                     rat_str)


def test_rat_accepts_ints_fractions_and_strings() -> None:
    assert rat(3) == Fraction(3)
    assert rat(Fraction(2, 6)) == Fraction(1, 3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-5") == Fraction(-5)
    assert rat("-7/2") == Fraction(-7, 2)


@pytest.mark.parametrize("bad", [True, False, 1.5, "1/0", "abc", "", None, [1]])
def test_rat_rejects_non_rationals(bad) -> None:
    with pytest.raises(MalformedInputError):
        rat(bad)


def test_rat_refuses_exponents_beyond_the_digit_limit() -> None:
    # Fraction expands 10**exponent: 1e10000000 did not finish in 9 s
    assert rat("1e3") == 1000 and rat("2.5e-3") == Fraction(1, 400) and rat(" 1E+2 ") == 100
    limit = sys.get_int_max_str_digits()
    assert rat(f"1e-{limit}").denominator == 10 ** limit
    for text in (f"1e{limit + 1}", "1e1000000", "-3.5E-10000000", "1e+10000000"):
        with pytest.raises(DomainError) as err:
            rat(text)
        assert err.value.reason == "too-large" and len(str(err.value)) < 100, text
    for text in ("1e", "1e 99999999", "1e--99999999", "1e99999999x"):
        with pytest.raises(MalformedInputError):
            rat(text)


def test_rat_str_lowest_terms() -> None:
    assert rat_str(Fraction(8, 3)) == "8/3"
    assert rat_str(Fraction(4, 1)) == "4"
    assert rat_str(Fraction(-2, 4)) == "-1/2"
    assert rat_str(Fraction(0)) == "0"


def test_qvector_arithmetic() -> None:
    u = QVector((Fraction(1), Fraction(-2), Fraction(1, 2)))
    v = QVector.unit(3, 1)
    assert (u + v) == (Fraction(1), Fraction(-1), Fraction(1, 2))
    assert (u - v) == (Fraction(1), Fraction(-3), Fraction(1, 2))
    assert (-u) == (Fraction(-1), Fraction(2), Fraction(-1, 2))
    assert (u * 2) == (Fraction(2), Fraction(-4), Fraction(1))
    assert (Fraction(1, 2) * u) == (Fraction(1, 2), Fraction(-1), Fraction(1, 4))
    assert u.dot(v) == Fraction(-2)
    assert QVector.zero(3).is_zero()
    assert not u.is_zero()
    assert v.is_nonnegative()
    assert not u.leq(v)
    assert u.leq(u + v)


def test_qvector_dimension_mismatch() -> None:
    with pytest.raises(MalformedInputError):
        QVector.zero(2) + QVector.zero(3)
    with pytest.raises(MalformedInputError):
        QVector.zero(2).dot(QVector.zero(3))


def test_form_requires_square_symmetric() -> None:
    with pytest.raises(MalformedInputError):
        SymForm(((1, 2),))
    with pytest.raises(MalformedInputError):
        SymForm(((0, 1), (2, 0)))


def test_form_apply_and_pair() -> None:
    m = SymForm(((-2, 1), (1, -2)))
    x = QVector((Fraction(1), Fraction(1)))
    assert m.apply(x) == (Fraction(-1), Fraction(-1))
    e0 = QVector.unit(2, 0)
    e1 = QVector.unit(2, 1)
    assert m.pair(e0, e1) == Fraction(1)
    assert m.pair(e0, e0) == Fraction(-2)


def test_form_determinant_and_minors() -> None:
    m = SymForm(((-2, 1), (1, -2)))
    assert m.det() == Fraction(3)
    assert m.leading_principal_minors() == (Fraction(-2), Fraction(3))


def test_negative_definite_sign_alternation() -> None:
    assert SymForm(((-1,),)).is_negative_definite()
    assert SymForm(((-2, 1), (1, -2))).is_negative_definite()
    assert SymForm(((-2, 0), (0, -2))).is_negative_definite()
    # rank deficient
    assert not SymForm(((-1, 1), (1, -1))).is_negative_definite()
    # indefinite hyperbolic plane
    assert not SymForm(((0, 1), (1, 0))).is_negative_definite()
    assert not SymForm(((1, 0), (0, -1))).is_negative_definite()


def test_solve_exact() -> None:
    m = SymForm(((-2, 1), (1, -2)))
    rhs = QVector((Fraction(-1), Fraction(-1)))
    assert m.solve(rhs) == (Fraction(1), Fraction(1))


def test_solve_singular_raises() -> None:
    m = SymForm(((-1, 1), (1, -1)))
    with pytest.raises(SingularSystemError):
        m.solve(QVector((Fraction(1), Fraction(0))))


def _random_neg_definite(rng: Random, n: int) -> SymForm:
    # chain with random diagonals <= -2 stays negative definite
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(-rng.randint(2, 6))
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = Fraction(1)
    return SymForm(tuple(tuple(r) for r in rows))


def test_pair_is_symmetric_bilinear_seeded() -> None:
    rng = Random(20260819)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _random_neg_definite(rng, n)
        u = QVector(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
        v = QVector(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
        w = QVector(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        assert m.pair(u, v) == m.pair(v, u)
        assert m.pair(u + w.scale(c), v) == m.pair(u, v) + c * m.pair(w, v)


def test_solve_round_trip_seeded() -> None:
    rng = Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _random_neg_definite(rng, n)
        rhs = QVector(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
        assert m.apply(m.solve(rhs)) == rhs


def test_negative_definite_matches_sampled_values() -> None:
    # necessary condition: x.M.x < 0 on every nonzero sample point
    rng = Random(99)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = _random_neg_definite(rng, n)
        assert m.is_negative_definite()
        points = [QVector(tuple(Fraction(c) for c in combo))
                  for combo in _grid(n, (-2, -1, 0, 1, 2))]
        for x in points:
            if not x.is_zero():
                assert m.pair(x, x) < 0


def _grid(n: int, values) -> list[tuple]:
    combos = [()]
    for _ in range(n):
        combos = [c + (v,) for c in combos for v in values]
    return combos


# -- the elimination kernel against sympy -------------------------------------------


def _sympy_matrix(sympy, form: SymForm):
    return sympy.Matrix(form.dim, form.dim, lambda i, j: sympy.Rational(
        form.entry(i, j).numerator, form.entry(i, j).denominator))


def _as_fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def _check_against_sympy(sympy, form: SymForm, rng: Random) -> None:
    m = _sympy_matrix(sympy, form)
    minors = form.leading_principal_minors()
    assert minors == tuple(_as_fraction(m[:k, :k].det()) for k in range(1, form.dim + 1))
    assert form.det() == _as_fraction(m.det())
    rhs = QVector(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(form.dim))
    if form.det() == 0:
        with pytest.raises(SingularSystemError):
            form.solve(rhs)
        return
    b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in rhs])
    assert form.solve(rhs) == tuple(_as_fraction(x) for x in m.LUsolve(b))


def _graph_form(rng: Random, n: int, extra_edges: int) -> SymForm:
    """Intersection-style matrix of a random tree plus extra edges, with
    multiplicity-2 edges; irreducibly diagonally dominant, hence negative
    definite."""
    rows = [[0] * n for _ in range(n)]
    edges = [(rng.randrange(k), k) for k in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra_edges if n > 2 else 0)]
    for a, b in edges:
        mult = rng.choice((1, 1, 2))
        rows[a][b] += mult
        rows[b][a] += mult
    for i in range(n):
        rows[i][i] = -(sum(rows[i]) + rng.randint(0 if i else 1, 2))
    return SymForm(rows)


def test_kernel_matches_sympy_on_seeded_graphs() -> None:
    sympy = pytest.importorskip("sympy")
    rng = Random(2026)
    for trial in range(40):
        n = rng.randint(1, 10)
        form = _graph_form(rng, n, extra_edges=trial % 3)
        assert form.is_negative_definite()
        _check_against_sympy(sympy, form, rng)


def test_kernel_matches_sympy_on_cycles() -> None:
    sympy = pytest.importorskip("sympy")
    rng = Random(11)
    for n in range(3, 14):
        rows = [[0] * n for _ in range(n)]
        for k in range(n):
            rows[k][(k + 1) % n] = rows[(k + 1) % n][k] = 1
            rows[k][k] = -rng.choice((2, 2, 3))
        rows[0][0] = -3
        _check_against_sympy(sympy, SymForm(rows), rng)


def test_kernel_matches_sympy_on_degenerate_forms() -> None:
    sympy = pytest.importorskip("sympy")
    rng = Random(5)
    special = [
        ((0, 1), (1, 0)),                      # zero leading minor, then nonzero
        ((1, 1, 0), (1, 1, 1), (0, 1, 1)),     # zero minor in the middle
        ((0, 0, 1), (0, 0, 2), (1, 2, 3)),     # two zero minors, then nonzero
        ((-1, 1), (1, -1)),                    # singular
        ((0, 0), (0, 0)),                      # zero
        ((1, 0), (0, -1)),                     # indefinite
        ((2, 1, 1), (1, 2, 1), (1, 1, 2)),     # positive definite
    ]
    for rows in special:
        _check_against_sympy(sympy, SymForm(rows), rng)
    for _ in range(80):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        _check_against_sympy(sympy, SymForm(rows), rng)


def test_kernel_matches_sympy_on_rational_forms() -> None:
    sympy = pytest.importorskip("sympy")
    rng = Random(8)
    _check_against_sympy(sympy, SymForm(((Fraction(1, 2), Fraction(1, 3)),
                                         (Fraction(1, 3), Fraction(-1, 4)))), rng)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        _check_against_sympy(sympy, SymForm(rows), rng)


def test_solve_on_support_matches_sympy_submatrix() -> None:
    sympy = pytest.importorskip("sympy")
    rng = Random(31)
    for _ in range(40):
        n = rng.randint(2, 10)
        form = _graph_form(rng, n, extra_edges=1)
        support = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        rhs = QVector(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        x = form.solve(rhs, support)
        sub = _sympy_matrix(sympy, form).extract(list(support), list(support))
        b = sympy.Matrix([sympy.Rational(rhs[i].numerator, rhs[i].denominator)
                          for i in support])
        expected = dict(zip(support, (_as_fraction(v) for v in sub.LUsolve(b))))
        assert x == tuple(expected.get(i, Fraction(0)) for i in range(n))
        assert form.solve(rhs, ()) == QVector.zero(n)


# -- sparse-built forms, leaf-first definiteness, integer pairing --------------------


def _graph_spec(rng: Random, n: int) -> tuple[list, list]:
    """A random tree listed root first, plus extra and parallel edges, with
    genus and weights that keep the matrix diagonally dominant."""
    edges = [(f"v{rng.randrange(k)}", f"v{k}", rng.choice((1, 1, 2))) for k in range(1, n)]
    for _ in range(rng.randint(0, 2) if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        edges.append((f"v{a}", f"v{b}", rng.choice((1, 2))))  # may repeat an edge
    load = {f"v{k}": 0 for k in range(n)}
    for a, b, mult in edges:
        load[a] += mult
        load[b] += mult
    vertices = [(v, -(load[v] + rng.randint(0 if k else 1, 2)), rng.choice((0, 0, 1)))
                for k, v in enumerate(load)]
    return vertices, edges


def test_sparse_graph_form_equals_dense_form_seeded() -> None:
    from singvol import ResolutionGraph

    rng = Random(606)
    for _ in range(60):
        n = rng.randint(1, 12)
        vertices, edges = _graph_spec(rng, n)
        graph = ResolutionGraph.make(vertices, edges)
        form = graph.intersection_form
        rows = [[0] * n for _ in range(n)]
        for k, (_, self_int, _) in enumerate(vertices):
            rows[k][k] = self_int
        for a, b, mult in edges:
            i, j = int(a[1:]), int(b[1:])
            rows[i][j] += mult
            rows[j][i] += mult
        dense = SymForm(rows)
        assert form == dense and hash(form) == hash(dense)
        assert form.to_doc() == dense.to_doc()
        assert all(form.entry(i, j) == rows[i][j] for i in range(n) for j in range(n))
        assert form.leading_principal_minors() == dense.leading_principal_minors()
        assert form.is_negative_definite() and dense.is_negative_definite()
        u = QVector(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        v = QVector(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        support = sorted(rng.sample(range(n), rng.randint(0, n)))
        assert form.solve(u) == dense.solve(u)
        assert form.solve(u, support) == dense.solve(u, support)
        assert form.apply(u) == dense.apply(u)
        assert form.pair(u, v) == dense.pair(u, v)


@pytest.mark.parametrize("rows, message", [
    pytest.param([], "form must have at least one row", id="empty"),
    pytest.param([[1, 2]], "form matrix is not square", id="not-square"),
    pytest.param([[1, True], [True, 1]], "not a rational: True", id="bool"),
    pytest.param([[1, "x"], ["x", 1]], "not a rational: 'x'", id="not-rational"),
    # the first nonzero entry, row by row, whose mirror differs: here the
    # mirror is zero, so checking (0, 2) first would name the wrong entry
    pytest.param([[-2, 0, 0], [0, -2, 0], [1, 0, -2]],
                 "form matrix is not symmetric at (2, 0)", id="asymmetric-zero-mirror"),
])
def test_dense_form_checks_each_entry(rows, message) -> None:
    # the dense constructor is the one outside input reaches; the graph's
    # sparse rows are trusted
    with pytest.raises(MalformedInputError) as exc:
        SymForm(rows)
    assert str(exc.value) == message


def test_graph_form_is_eliminated_once(monkeypatch) -> None:
    # construction's definiteness test is the form's one leaf-first pass;
    # det and the test read it afterwards, the canonical solve substitutes
    # through its factor, and an lc graph's volume runs no trace round
    from singvol import ResolutionGraph, lattice, volume

    calls = []
    eliminate = lattice._eliminate

    def counting(rows, n, **options):
        calls.append(n)
        return eliminate(rows, n, **options)

    monkeypatch.setattr(lattice, "_eliminate", counting)
    vertices, edges = _graph_spec(Random(609), 40)
    form = ResolutionGraph.make(vertices, edges).intersection_form
    assert calls == [40]
    assert form.det() != 0 and form.is_negative_definite()
    assert calls == [40]
    calls.clear()
    rng = Random(610)
    chain = ResolutionGraph.make([(f"v{k}", -rng.randint(2, 4), 0) for k in range(40)],
                                 [(f"v{k}", f"v{k + 1}") for k in range(39)])
    assert calls == [40]
    assert chain.intersection_form.det() != 0
    report = chain.discrepancy_report()
    assert report.is_lc and not report.b.coeffs.is_zero()
    assert volume(chain).volume == 0
    assert calls == [40]


def test_solve_through_the_factor_matches_sympy_seeded() -> None:
    # whole-form and support solves against sympy on every kind of
    # _random_symmetric: swaps, singular blocks and rational forms
    sympy = pytest.importorskip("sympy")
    rng = Random(611)
    seen = set()
    for case in range(400):
        kind = case % 4
        form = SymForm(_random_symmetric(rng, kind))
        n = form.dim
        m = _sympy_matrix(sympy, form)
        rhs = QVector(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        support = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        for sup in (None, support):
            idx = list(range(n) if sup is None else sup)
            sub = m.extract(idx, idx)
            if sub.det() == 0:
                with pytest.raises(SingularSystemError):
                    form.solve(rhs, sup)
                seen.add("singular")
                continue
            b = sympy.Matrix([sympy.Rational(rhs[i].numerator, rhs[i].denominator)
                              for i in idx])
            expected = dict(zip(idx, (_as_fraction(v) for v in sub.LUsolve(b))))
            assert form.solve(rhs, sup) == tuple(expected.get(i, Fraction(0))
                                                 for i in range(n)), (kind, sup)
            if form._factor(idx[::-1])[1]:
                seen.add("swap")
            if kind == 3:
                seen.add("rational")
    assert seen == {"singular", "swap", "rational"}, seen


def _natural_order_negative_definite(form: SymForm) -> bool:
    minors = form.leading_principal_minors()
    return all(m != 0 and (m < 0) == (k % 2 == 0) for k, m in enumerate(minors))


def _random_symmetric(rng: Random, kind: int) -> list[list]:
    """Kind 0: sparse random entries, mostly indefinite. Kind 1: -B B^T,
    negative semidefinite and singular when B has fewer columns than rows.
    Kind 2: a diagonally dominant negative matrix with one diagonal entry
    raised, on either side of definiteness. Kind 3: kind 1 over a common
    denominator."""
    n = rng.randint(1, 6)
    if kind == 0:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        return rows
    if kind in (1, 3):
        cols = rng.randint(max(1, n - 2), n + 1)
        b = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(n)]
        rows = [[-sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)] for i in range(n)]
        if kind == 3:
            den = rng.randint(2, 5)
            rows = [[Fraction(x, den) for x in row] for row in rows]
        return rows
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = rng.randint(0, 2)
    for i in range(n):
        rows[i][i] = -(sum(rows[i]) + rng.randint(0, 1))
    i = rng.randrange(n)
    rows[i][i] += rng.randint(0, 2)
    return rows


def test_integer_solve_matches_solve_seeded() -> None:
    # solve_int returns (d, y = d x) with d > 0 for the x that solve and sympy
    # give, on every kind of _random_symmetric, with or without a support;
    # an odd negative-definite block has a negative last pivot, and both
    # signs come up
    sympy = pytest.importorskip("sympy")
    rng = Random(612)
    seen = set()
    for case in range(400):
        form = SymForm(_random_symmetric(rng, case % 4))
        n = form.dim
        m = _sympy_matrix(sympy, form)
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        support = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        for sup in (None, support):
            idx = list(range(n) if sup is None else sup)
            sub = m.extract(idx, idx)
            if sub.det() == 0:
                with pytest.raises(SingularSystemError):
                    form.solve_int(rhs, sup)
                continue
            d, y = form.solve_int(rhs, sup)
            assert d > 0 and len(y) == n and all(type(v) is int for v in y)
            x = form.solve(rhs, sup)
            assert tuple(Fraction(v, d) for v in y) == x
            expected = sub.LUsolve(sympy.Matrix([rhs[i] for i in idx]))
            assert [x[i] for i in idx] == [_as_fraction(v) for v in expected]
            seen.add(form._factor(idx[::-1])[0][-1] > 0)
    assert seen == {True, False}


def test_bordered_factor_equals_a_fresh_one_seeded() -> None:
    # a factor bordered chunk by chunk, in random growth orders on random
    # negative-definite forms, is the factor of its whole block computed
    # afresh (the same pivots, upper rows and updates per step), and it
    # solves as sympy does on the block
    sympy = pytest.importorskip("sympy")
    from singvol.lattice import _eliminate, _substitute

    rng = Random(613)
    seen = set()
    for _ in range(150):
        n = rng.randint(2, 12)
        form = _graph_form(rng, n, rng.randint(0, 3))
        m, sparse = _sympy_matrix(sympy, form), form._integral[1]
        todo = rng.sample(range(n), rng.randint(1, n))
        order: list[int] = []
        pos: dict[int, int] = {}
        factor = None
        while todo:
            chunk = [todo.pop() for _ in range(min(len(todo), rng.randint(1, 4)))]
            start = len(order)
            for v in chunk:
                pos[v] = len(order)
                order.append(v)
            border = [{pos[j]: a for j, a in sparse[i] if j in pos} for i in chunk]
            before = [set(row) for row in border]
            if any(j != start + t and j >= start for t, row in enumerate(before) for j in row):
                seen.add("adjacent new rows")
            if any(j < start for row in before for j in row):
                seen.add("old steps")
            factor = _eliminate(border, len(border), factor)
            if any(j >= start and j not in row
                   for t, row in enumerate(before) for j in factor[3][start + t]):
                seen.add("fill among new rows")
            fresh = form._factor(order)
            assert factor[:2] == fresh[:2] and factor[1] == 0
            assert factor[3] == fresh[3]
            assert [(r, sorted(u)) for r, u in factor[2]] == [(r, sorted(u)) for r, u in fresh[2]]
            rhs = [rng.randint(-6, 6) for _ in order]
            d, y = _substitute(factor, rhs)
            assert d > 0 and (d, y) == _substitute(fresh, rhs)
            x = m.extract(order, order).LUsolve(sympy.Matrix(rhs))
            assert [Fraction(v, d) for v in y] == [_as_fraction(v) for v in x]
            seen.add(len(order) % 2)
    assert seen == {"adjacent new rows", "old steps", "fill among new rows", 0, 1}, seen


def test_bordering_a_swapped_or_singular_factor_is_refused() -> None:
    from singvol.errors import InternalConsistencyError
    from singvol.lattice import _eliminate

    swapped = _eliminate([{1: 1}, {0: 1, 1: 1}], 2)  # a zero leading pivot
    singular = _eliminate([{0: -1, 1: 1}, {0: 1, 1: -1}], 2)
    assert swapped[1] == 1 and singular[0] == [-1, 0]
    for factor in (swapped, singular):
        with pytest.raises(InternalConsistencyError):
            _eliminate([{2: -1}], 1, factor)


def test_leaf_first_definiteness_matches_natural_minors_seeded() -> None:
    rng = Random(607)
    seen = set()
    for case in range(2400):
        rows = _random_symmetric(rng, case % 4)
        form = SymForm(rows)
        expected = _natural_order_negative_definite(form)
        assert form.is_negative_definite() == expected, rows
        n = form.dim
        reversed_form = SymForm([[rows[n - 1 - i][n - 1 - j] for j in range(n)]
                                 for i in range(n)])
        seen.add(("definite", expected))
        seen.add(("singular", form.det() == 0))
        seen.add(("zero pivot", 0 in reversed_form.leading_principal_minors()[:-1]))
        seen.add(("natural zero pivot", 0 in form.leading_principal_minors()[:-1]))
    assert {(k, v) for k in ("definite", "singular", "zero pivot", "natural zero pivot")
            for v in (True, False)} <= seen, seen


def test_integer_pair_matches_fraction_dot_on_rational_forms() -> None:
    rng = Random(608)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        rows[0][0] = Fraction(1, 2)  # a non-integral entry, so L > 1
        form = SymForm(rows)
        assert form._integral[0] > 1
        a = QVector(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        b = QVector(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        expected = sum((a[i] * rows[i][j] * b[j] for i in range(n) for j in range(n)),
                       Fraction(0))
        assert form.pair(a, b) == expected
        assert form.pair(a, a) == form.pair(a, QVector(a)) == a.dot(form.apply(a))
        assert form.apply(b) == tuple(QVector(row).dot(b) for row in rows)


def test_self_pairing_takes_numerators_once(monkeypatch) -> None:
    from singvol import lattice

    calls = []
    numerators = lattice.numerators
    monkeypatch.setattr(lattice, "numerators", lambda v: calls.append(v) or numerators(v))
    form = SymForm([[Fraction(-3, 2), 1], [1, -2]])
    x = QVector([Fraction(1, 3), -2])
    assert form.pair(x, x) == Fraction(-19, 2)
    assert len(calls) == 1
    assert form.pair(x, QVector(x)) == Fraction(-19, 2)  # equal, not the same object
    assert len(calls) == 3
