"""Polynomial forms on the simplex and the cochain transfer maps."""

from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from freedgl import whitney
from freedgl.cli import _whitney_suite
from freedgl.lie import DomainError
from freedgl.whitney import (
    Cochain,
    PolyForm,
    cochain_d,
    dt_var,
    elementary_form,
    exterior_d,
    face_integral,
    integrate_p,
    one_form,
    restrict,
    t_var,
    wedge,
    whitney_i,
    zero_form,
)


def faces(n):
    for k in range(n + 1):
        yield from combinations(range(n + 1), k + 1)


def test_whitney_suite_builds_each_face_form_once():
    # the n=3 suite reads 15 faces' forms, through its own table and its
    # whitney_i calls, and builds each once; every caller gets a copy
    whitney._elementary_terms.cache_clear()
    assert all(ok for _, ok in _whitney_suite(3))
    assert whitney._elementary_terms.cache_info().misses == 15
    form = elementary_form((0, 2), 3)
    form.terms.clear()
    assert elementary_form((0, 2), 3).terms
    assert whitney_i(Cochain(3, {(0, 2): 1})) == elementary_form((0, 2), 3)


def test_pinned_elementary_forms():
    assert elementary_form((0,), 2) == t_var(0, 2)
    assert elementary_form((1,), 2) == t_var(1, 2)
    assert elementary_form((0, 1), 1) == dt_var(1, 1)
    for n in (1, 2, 3):
        ref = one_form(n)
        for i in range(1, n + 1):
            ref = wedge(ref, dt_var(i, n))
        top = elementary_form(tuple(range(n + 1)), n)
        assert top == Fraction(factorial(n)) * ref


def test_face_checks_reject_bad_input():
    with pytest.raises(DomainError):
        elementary_form((0, 2), 1)
    with pytest.raises(DomainError):
        elementary_form((1, 0), 2)
    with pytest.raises(DomainError):
        elementary_form((0, 0), 2)
    with pytest.raises(DomainError):
        elementary_form((), 2)
    with pytest.raises(DomainError):
        t_var(4, 3)
    with pytest.raises(DomainError):
        dt_var(-1, 2)


def test_canonicalization_kills_t0_relation():
    # sum of all barycentric coordinates is 1, sum of differentials is 0
    for n in (1, 2, 3):
        s = zero_form(n)
        for i in range(n + 1):
            s = s + t_var(i, n)
        assert s == one_form(n)
        ds = zero_form(n)
        for i in range(n + 1):
            ds = ds + dt_var(i, n)
        assert ds.is_zero()


def test_wedge_is_graded_commutative_and_nilpotent_on_dts():
    n = 3
    for i in range(n + 1):
        assert wedge(dt_var(i, n), dt_var(i, n)).is_zero()
    for i in range(n + 1):
        for j in range(n + 1):
            assert wedge(dt_var(i, n), dt_var(j, n)) == (
                Fraction(-1) * wedge(dt_var(j, n), dt_var(i, n)))
            assert wedge(t_var(i, n), dt_var(j, n)) == (
                wedge(dt_var(j, n), t_var(i, n)))


def test_exterior_d_squares_to_zero_and_leibniz():
    n = 3
    pool = []
    for e in product(range(2), repeat=n):
        for k in range(2):
            for s in combinations(range(1, n + 1), k):
                pool.append(PolyForm(n, {(e, s): Fraction(1)}))
    for u in pool:
        assert exterior_d(exterior_d(u)).is_zero()
    for u in pool[:8]:
        for v in pool[:8]:
            du = u.degrees()[0]
            lhs = exterior_d(wedge(u, v))
            rhs = wedge(exterior_d(u), v) + (
                Fraction((-1) ** du) * wedge(u, exterior_d(v)))
            assert lhs == rhs


def test_d_of_elementary_form_collects_cofaces():
    for n in range(4):
        for face in faces(n):
            lhs = exterior_d(elementary_form(face, n))
            rhs = zero_form(n)
            for q in range(n + 1):
                if q in face:
                    continue
                bigger = tuple(sorted(face + (q,)))
                sign = Fraction((-1) ** bigger.index(q))
                rhs = rhs + sign * elementary_form(bigger, n)
            assert lhs == rhs


def test_restriction_off_face_vanishes():
    for n in range(4):
        for face in faces(n):
            for sub in faces(n):
                r = restrict(elementary_form(face, n), sub)
                if set(face) <= set(sub):
                    if face == sub:
                        assert face_integral(elementary_form(face, n),
                                             face) == 1
                else:
                    assert r.is_zero()


def test_face_integral_on_own_face_is_one():
    for n in range(4):
        for face in faces(n):
            assert face_integral(elementary_form(face, n), face) == 1


def test_projection_pinned_value():
    f = wedge(t_var(1, 1), dt_var(1, 1))
    assert integrate_p(f) == Cochain(1, {(0, 1): Fraction(1, 2)})
    assert face_integral(f, (0, 1)) == Fraction(1, 2)


def test_projection_splits_inclusion():
    for n in range(4):
        for face in faces(n):
            c = Cochain(n, {face: 1})
            assert integrate_p(whitney_i(c)) == c
    # also on a mixed-degree combination
    c = Cochain(3, {(0,): 2, (1, 2): Fraction(-1, 3), (0, 1, 3): 5})
    assert integrate_p(whitney_i(c)) == c


def test_inclusion_is_a_chain_map():
    for n in range(4):
        for face in faces(n):
            c = Cochain(n, {face: 1})
            assert exterior_d(whitney_i(c)) == whitney_i(cochain_d(c))


def test_projection_is_a_chain_map():
    for n in range(1, 4):
        exp_pool = [e for e in product(range(3), repeat=n) if sum(e) <= 2]
        dts_pool = [s for k in range(n)
                    for s in combinations(range(1, n + 1), k)]
        for e in exp_pool:
            for s in dts_pool:
                u = PolyForm(n, {(e, s): Fraction(1)})
                assert integrate_p(exterior_d(u)) == cochain_d(integrate_p(u))


def test_cochain_coboundary_squares_to_zero():
    for n in range(4):
        for face in faces(n):
            c = Cochain(n, {face: 1})
            assert cochain_d(cochain_d(c)).is_zero()


def test_arithmetic_and_errors():
    u = t_var(1, 2)
    v = t_var(2, 2)
    assert (u + v) - v == u
    assert (2 * u) == u + u
    with pytest.raises(DomainError):
        wedge(t_var(1, 2), t_var(1, 3))
    with pytest.raises(TypeError):
        hash(u)
    with pytest.raises(TypeError):
        hash(Cochain(2, {(0,): 1}))
    assert str(zero_form(2)) == "0"
    assert "dt1" in str(dt_var(1, 2))


@pytest.mark.parametrize("make", [
    lambda: PolyForm(2, {((0, 0), (2, 1)): 1}),
    lambda: PolyForm(2, {((0, 0), (1, 1)): 1}),
    lambda: PolyForm(2, {((0, 0), (0,)): 1}),
    lambda: PolyForm(2, {((1,), (1,)): 1}),
    lambda: PolyForm(2, {((-1, 0), ()): 1}),
    lambda: PolyForm(2, {((0, 0), ()): 0.1}),
    lambda: Cochain(2, {(0, 1): 0.1}),
    lambda: Cochain(2, {(0.0, 1): 1}),
    lambda: 0.5 * t_var(1, 2),
    lambda: Cochain(2, {(0,): 1}) * 0.5,
], ids=["unsorted_dts", "repeated_dt", "dt0", "short_exponents",
        "negative_exponent", "float_form_scalar", "float_cochain_scalar",
        "float_vertex", "float_times_form", "cochain_times_float"])
def test_noncanonical_input_is_refused(make):
    # ((0, 0), (2, 1)) used to be kept apart from -dt1 dt2, so its integral
    # over (0, 1, 2) read 0 instead of -1/2
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("make", [
    lambda: PolyForm(-1, {}),
    lambda: PolyForm(2.0, {}),
    lambda: Cochain(-1, {}),
    lambda: Cochain("2", {(0,): 1}),
    lambda: zero_form(-1),
    lambda: one_form(-1),
    lambda: one_form(True),
    lambda: Cochain(2, {5: 1}),
], ids=["negative_form_n", "float_form_n", "negative_cochain_n",
        "str_cochain_n", "negative_zero_form", "negative_one_form",
        "bool_one_form", "int_face"])
def test_bad_simplex_dimension_or_face_is_refused(make):
    # one_form(-1) used to print 1, and an int face died with a TypeError
    with pytest.raises(DomainError):
        make()


def test_cochains_on_different_simplices_do_not_combine():
    a = Cochain(2, {(0, 1): 1})
    b = Cochain(3, {(0, 1): 1})
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a - b


# Independent references on plain {(exponents, dts): Fraction} dicts: the
# restriction-based face integral and the term-by-term exterior derivative
# of the first implementation, over a wedge that bubble-sorts its dt's.

def _ref_add(out, key, c):
    out[key] = out.get(key, 0) + c
    if not out[key]:
        del out[key]


def ref_wedge(a, b):
    out = {}
    for (e1, s1), c1 in a.items():
        for (e2, s2), c2 in b.items():
            if set(s1) & set(s2):
                continue
            dts, sign = list(s1 + s2), 1
            for end in range(len(dts) - 1, 0, -1):
                for i in range(end):
                    if dts[i] > dts[i + 1]:
                        dts[i], dts[i + 1] = dts[i + 1], dts[i]
                        sign = -sign
            exps = tuple(x + y for x, y in zip(e1, e2))
            _ref_add(out, (exps, tuple(dts)), sign * c1 * c2)
    return out


def _ref_unit(n, i):
    return tuple(int(j == i) for j in range(1, n + 1))


def ref_t(n, i):
    if i:
        return {(_ref_unit(n, i), ()): Fraction(1)}
    out = {((0,) * n, ()): Fraction(1)}
    out.update({(_ref_unit(n, j), ()): Fraction(-1) for j in range(1, n + 1)})
    return out


def ref_dt(n, i):
    if i:
        return {((0,) * n, (i,)): Fraction(1)}
    return {((0,) * n, (j,)): Fraction(-1) for j in range(1, n + 1)}


def ref_exterior_d(n, a):
    out = {}
    for (exps, dts), c in a.items():
        for i in range(1, n + 1):
            if not exps[i - 1] or i in dts:
                continue
            lower = list(exps)
            lower[i - 1] -= 1
            term = ref_wedge({(tuple(lower), (i,)): c * exps[i - 1]},
                             {((0,) * n, dts): Fraction(1)})
            for key, v in term.items():
                _ref_add(out, key, v)
    return out


def ref_restrict(n, a, face):
    kept = {(exps, dts): c for (exps, dts), c in a.items()
            if all(i in face or not e for i, e in enumerate(exps, start=1))
            and all(s in face for s in dts)}
    f0 = face[0]
    if f0 == 0:
        return kept
    tsub = {((0,) * n, ()): Fraction(1)}
    dsub = {}
    for i in face[1:]:
        _ref_add(tsub, (_ref_unit(n, i), ()), Fraction(-1))
        _ref_add(dsub, ((0,) * n, (i,)), Fraction(-1))
    out = {}
    for (exps, dts), c in kept.items():
        piece = {((0,) * n, ()): c}
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                piece = ref_wedge(piece, tsub if i == f0 else ref_t(n, i))
        for s in dts:
            piece = ref_wedge(piece, dsub if s == f0 else ref_dt(n, s))
        for key, v in piece.items():
            _ref_add(out, key, v)
    return out


def ref_face_integral(n, a, face):
    free = face[1:]
    total = Fraction(0)
    for (exps, dts), c in ref_restrict(n, a, face).items():
        if dts == free:
            num = 1
            for i in free:
                num *= factorial(exps[i - 1])
            total += c * Fraction(num, factorial(sum(exps) + len(free)))
    return total


scalars = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                    st.integers(min_value=1, max_value=5))


def canonical_forms(n):
    keys = st.tuples(
        st.tuples(*[st.sampled_from((0, 0, 1, 2))] * n),
        st.sets(st.integers(min_value=1, max_value=n), max_size=n).map(
            lambda s: tuple(sorted(s))))
    return st.dictionaries(keys, scalars, max_size=4).map(
        lambda terms: PolyForm(n, terms))


def test_references_agree_on_pinned_values():
    assert ref_face_integral(1, {((1,), (1,)): Fraction(1)}, (0, 1)) == (
        Fraction(1, 2))
    assert ref_face_integral(2, {((0, 0), (1, 2)): Fraction(-1)},
                             (0, 1, 2)) == Fraction(-1, 2)
    assert ref_exterior_d(2, {((1, 1), ()): Fraction(1)}) == {
        ((0, 1), (1,)): 1, ((1, 0), (2,)): 1}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_operations_match_independent_references(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    u = data.draw(canonical_forms(n))
    v = data.draw(canonical_forms(n))
    assert exterior_d(u).terms == ref_exterior_d(n, u.terms)
    assert wedge(u, v).terms == ref_wedge(u.terms, v.terms)
    projected = {}
    for face in faces(n):
        assert restrict(u, face).terms == ref_restrict(n, u.terms, face)
        value = ref_face_integral(n, u.terms, face)
        assert face_integral(u, face) == value
        if value:
            projected[face] = value
    assert integrate_p(u).terms == projected
