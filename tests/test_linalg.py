"""Exact sparse elimination: rank, solve, null space, row/column agreement,
and the span front end against the Gauss-Jordan reference.  The package takes
and gives vectors as integer numerators over one denominator; the tests
build them from Fraction dicts and read them back as such."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from freedgl.lie import clear_denominators
from freedgl.linalg import SpanReducer, null_space, solve_columns
from oracles import (
    GaussJordanReducer, dense_rank, kernel_columns, oracle_solve_columns,
    over, primitive, transpose, vec_add, vec_scale,
)


def F(n, d=1):
    return Fraction(n, d)


def insert(red, v, tag):
    """SpanReducer.insert of a Fraction dict."""
    num, den = clear_denominators(v)
    return red.insert(num, tag, den)


def reduce(red, v):
    """SpanReducer.reduce of a Fraction dict."""
    num, den = clear_denominators(v)
    return red.reduce(num, den)


def _read(pair):
    num, den = pair
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in num.values())
    return over(num, den)


def solve(cols, b):
    """solve_columns on Fraction dicts, its integer answer read back as
    Fraction dicts."""
    x, residual = solve_columns([clear_denominators(c) for c in cols],
                                clear_denominators(b))
    assert (x is None) != (residual is None)
    if x is None:
        return None, _read(residual)
    return _read(x), None


def test_reducer_basics():
    red = SpanReducer()
    assert red.insert({0: 2, 1: 4}, "a")[0] == 0
    # same direction: dependent, expressed through the first tag as an
    # integer combination over one denominator, 2 * b = 1 * a
    assert red.insert({0: 1, 1: 2}, "b") == (None, {"a": 1}, 2)
    assert red.insert({1: 1}, "c")[0] == 1
    # a vector over a denominator: 3 * (a/3) = 1 * a
    assert red.insert({0: 2, 1: 4}, "d", 3) == (None, {"a": 1}, 3)


def test_solve_columns_exact_and_canonical():
    cols = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {1: F(1)}]
    x, residual = solve(cols, {0: F(3), 1: F(5)})
    assert residual is None
    # column 1 is dependent on column 0, so it stays free (zero)
    assert x == {0: F(3), 2: F(2)}
    x, residual = solve([{0: F(1)}], {1: F(1)})
    assert x is None
    assert residual == {1: F(1)}
    # integers over one denominator both ways: (2/3) x = 1/2 at x = 3/4
    assert solve_columns([({0: 2}, 3)], ({0: 1}, 2)) == (({0: 3}, 4), None)
    assert solve_columns([({0: 1}, 1)], ({1: 2}, 3)) == (None, ({1: 2}, 3))


def _rank(vectors):
    red = SpanReducer()
    for j, v in enumerate(vectors):
        insert(red, v, j)
    return red.rank()


def test_kernel_columns():
    cols = [{0: F(1)}, {0: F(2)}, {1: F(1)}, {0: F(1), 1: F(3)}]
    ker = kernel_columns(cols)
    assert ker == [{0: F(-2), 1: F(1)}, {0: F(-1), 2: F(-3), 3: F(1)}]
    # the front end's dependency combinations give the same kernel
    red = SpanReducer()
    front = []
    for j, col in enumerate(cols):
        piv, comb, den = insert(red, col, j)
        if piv is None:
            front.append({**{i: F(-c, den) for i, c in comb.items()}, j: F(1)})
    assert front == ker
    for k in ker:
        total = {}
        for j, c in k.items():
            total = vec_add(total, cols[j], c)
        assert total == {}


matrices = st.lists(
    st.lists(st.builds(Fraction,
                       st.integers(min_value=-5, max_value=5),
                       st.integers(min_value=1, max_value=3)),
             min_size=4, max_size=4),
    min_size=1, max_size=6)


@given(matrices)
@settings(max_examples=80, deadline=None)
def test_row_rank_equals_column_rank(dense):
    cols = []
    for col in dense:
        cols.append({i: c for i, c in enumerate(col) if c != 0})
    rows = transpose(cols)
    assert _rank(cols) == _rank(rows) == dense_rank(cols, 4)


@given(matrices, st.lists(st.integers(min_value=-4, max_value=4),
                          min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_solutions_verify(dense, coeffs):
    cols = [{i: c for i, c in enumerate(col) if c != 0} for col in dense]
    b = {}
    for j, col in enumerate(cols):
        b = vec_add(b, col, Fraction(coeffs[j % len(coeffs)]))
    x, residual = solve(cols, b)
    assert residual is None
    total = {}
    for j, c in x.items():
        total = vec_add(total, cols[j], c)
    assert total == b


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(dense):
    cols = [{i: c for i, c in enumerate(col) if c != 0} for col in dense]
    assert _rank(cols) + len(kernel_columns(cols)) == len(cols)


entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.integers(min_value=1, max_value=4)))


sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                          entries)


@st.composite
def systems(draw):
    """(columns, b) over spread-out row indices 3i + 1, sparse, up to 10 x
    10: zero columns, repeated columns and multiples of earlier ones make
    them rank-deficient.  b is a combination of the columns plus, sometimes,
    a random vector that may leave their span and an entry at index 0,
    which no column touches."""
    m = draw(st.integers(min_value=0, max_value=10))
    index = [3 * i + 1 for i in range(m)]
    cols = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "multiple"]))
        if kind == "zero":
            cols.append({})
        elif kind != "new" and cols:
            j = draw(st.integers(min_value=0, max_value=len(cols) - 1))
            scale = draw(entries) if kind == "multiple" else Fraction(1)
            cols.append(vec_scale(cols[j], scale))
        else:
            dense = draw(st.lists(sparse_entries, min_size=m, max_size=m))
            cols.append({index[i]: c for i, c in enumerate(dense) if c})
    b = {}
    for col in cols:
        b = vec_add(b, col, draw(sparse_entries))
    if draw(st.booleans()):
        extra = draw(st.lists(sparse_entries, min_size=m, max_size=m))
        b = vec_add(b, {index[i]: c for i, c in enumerate(extra) if c})
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        b = vec_add(b, {0: draw(entries)})
    return cols, b


@given(systems())
@settings(max_examples=300, deadline=None)
def test_solve_columns_matches_the_dense_oracle(system):
    cols, b = system
    assert solve(cols, b) == oracle_solve_columns(cols, b)


@given(systems())
@settings(max_examples=200, deadline=None)
def test_infeasible_residual_is_the_marker_routes(system):
    # the markerless echelon only detects an inconsistent system; its
    # residual is b reduced by the tagged columns, the marker route of the
    # Gauss-Jordan reference
    cols, b = system
    x, residual = solve(cols, b)
    ref = GaussJordanReducer()
    for j, col in enumerate(cols):
        ref.insert(col, j)
    want, _ = ref.reduce(b)
    assert (x is None) == bool(want)
    if x is None:
        assert residual == want


def test_solve_columns_edge_cases_match_the_oracle():
    cases = [
        ([], {}),
        ([], {2: F(1, 3)}),
        ([{}, {0: F(1, 2)}, {}], {0: F(3, 4)}),
        # dependent columns with mixed denominators: x stays on the first
        ([{0: F(2, 3), 5: F(-1, 6)}, {0: F(4, 5), 5: F(-1, 5)}], {0: F(1), 5: F(-1, 4)}),
        # infeasible: the residual keeps no support on the pivot rows
        ([{0: F(1), 1: F(1)}, {1: F(1, 7), 2: F(1)}], {0: F(1, 2), 1: F(1, 3), 2: F(5)}),
        ([{1: F(1)}, {1: F(2)}], {0: F(1, 9), 1: F(1)}),
    ]
    for cols, b in cases:
        assert solve(cols, b) == oracle_solve_columns(cols, b), (cols, b)
    assert solve(*cases[3]) == ({0: F(3, 2)}, None)
    assert solve(*cases[4]) == (None, {2: F(37, 6)})


def check_null_space(cols):
    """null_space against the oracle's kernel: one primitive relation per
    dependent column j, j being its highest index, and the other columns
    as the pivots."""
    kernels, pivots = null_space([clear_denominators(c) for c in cols])
    want = {max(k): primitive(k) for k in kernel_columns(cols)}
    assert kernels == want and list(kernels) == sorted(want), cols
    assert pivots == [j for j in range(len(cols)) if j not in want], cols
    return kernels, pivots


@given(systems())
@settings(max_examples=300, deadline=None)
def test_null_space_matches_the_dense_oracle(system):
    check_null_space(system[0])


def test_null_space_edge_cases_match_the_oracle():
    assert check_null_space([]) == ({}, [])
    # zero columns relate to nothing: each is its own kernel vector
    assert check_null_space([{}, {0: F(1, 2)}, {}]) == (
        {0: {0: 1}, 2: {2: 1}}, [1])
    # a repeated column, after a zero one
    assert check_null_space([{}, {1: F(3)}, {1: F(3)}]) == (
        {0: {0: 1}, 2: {1: 1, 2: -1}}, [1])
    # mixed denominators: column 1 is 6/5 of column 0
    assert check_null_space([{0: F(2, 3), 5: F(-1, 6)},
                             {0: F(4, 5), 5: F(-1, 5)}]) == (
        {1: {0: 6, 1: -5}}, [0])
    # the relation runs over the pivots below j only, later ones at 0
    assert check_null_space([{0: F(1)}, {1: F(1, 2)}, {0: F(-2, 7)},
                             {0: F(1), 1: F(1)}, {2: F(1)}]) == (
        {2: {0: 2, 2: 7}, 3: {0: 1, 1: 2, 3: -1}}, [0, 1, 4])


# distinct tags of mixed types: the front end only needs them distinct
# (its package callers tag by int index)
TAGS = ["a", ("im", 0), ("rep", 0), (1, "x"), None, "b", ("im", 1)]


@st.composite
def tagged_matrices(draw):
    """Distinctly tagged Fraction vectors with mixed denominators over
    spread-out indices (some zero, some combinations of earlier ones), plus
    vectors to reduce afterwards."""
    m = draw(st.integers(min_value=0, max_value=5))
    index = [2 * i + draw(st.integers(min_value=0, max_value=1))
             for i in range(m)]

    def vector():
        dense = draw(st.lists(entries, min_size=m, max_size=m))
        return {index[i]: c for i, c in enumerate(dense) if c}

    inserted = []
    for tag in TAGS[:draw(st.integers(min_value=0, max_value=len(TAGS)))]:
        if inserted and draw(st.booleans()):
            # a combination of earlier vectors: always dependent
            v = {}
            for u, _ in inserted:
                v = vec_add(v, u, draw(entries))
        else:
            v = vector()
        inserted.append((v, tag))
    probes = [vector() for _ in range(draw(st.integers(min_value=1,
                                                        max_value=3)))]
    return inserted, probes


@given(tagged_matrices())
@settings(max_examples=300, deadline=None)
def test_span_front_end_matches_gauss_jordan(case):
    inserted, probes = case
    red, ref = SpanReducer(), GaussJordanReducer()
    for v, tag in inserted:
        piv, comb, den = insert(red, v, tag)
        want_piv, want_comb = ref.insert(v, tag)
        assert piv == want_piv, (v, tag)
        if piv is None:
            assert over(comb, den) == want_comb, (v, tag)
        assert red.rank() == ref.rank()
    for v in probes:
        residual, comb, den = reduce(red, v)
        assert (over(residual, den), over(comb, den)) == ref.reduce(v), v
        assert (not residual) == (not ref.reduce(v)[0])


@given(tagged_matrices())
@settings(max_examples=200, deadline=None)
def test_span_combinations_are_integers_over_one_denominator(case):
    # den * v == sum(comb[tag] * inserted[tag]) + residual holds in integers
    # over the inserted vectors as given, with one positive den and no
    # common factor, for dependent inserts and for reductions
    inserted, probes = case
    red = SpanReducer()
    stored = {}

    def check(v, residual, comb, den):
        assert type(den) is int and den > 0
        values = [*residual.values(), *comb.values()]
        assert all(type(c) is int for c in values)
        assert gcd(den, *values) == 1
        total = dict(residual)
        for tag, c in comb.items():
            total = vec_add(total, stored[tag], c)
        assert total == vec_scale(v, den)

    for v, tag in inserted:
        piv, comb, den = insert(red, v, tag)
        if piv is None:
            check(v, {}, comb, den)
        else:
            assert (comb, den) == (None, None)
            stored[tag] = v
    for v in probes:
        check(v, *reduce(red, v))
