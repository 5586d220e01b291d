"""BCH, exponential conjugation, Bernoulli operator, gauge, twist."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from freedgl import cli, lie, series
from freedgl.lie import (
    GenSet, Elt, FreeDGL, ConfigError, DomainError, bracket, generator_elt,
    lyndon_slice_basis, elt_from_slice_coords,
)
from freedgl.serialize import parse_element
from freedgl.series import (
    bernoulli_numbers, bch, exp_ad, bernoulli_op, bernoulli_op_inverse,
    is_mc, mc_residue, gauge, twist,
)
from oracles import (
    bch_terms, oracle_ad_series, oracle_combine, oracle_derivation,
    series_coefficients,
)


def test_bernoulli_first_kind():
    B = bernoulli_numbers(8)
    assert B[0] == 1
    assert B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6)
    assert B[3] == 0
    assert B[4] == Fraction(-1, 30)
    assert B[5] == 0
    assert B[6] == Fraction(1, 42)
    assert B[8] == Fraction(-1, 30)


GENS3 = GenSet([("x", 0), ("y", 0), ("z", 0)])
N = 5


def g3(name, n=N):
    return generator_elt(GENS3, n, name)


def random_degree0(seed_coeffs):
    """A degree-0 element from coefficient lists over the Lyndon slices."""
    total = Elt(GENS3, N, {})
    for length in (1, 2, 3):
        basis = lyndon_slice_basis(GENS3, 0, length)
        coords = [seed_coeffs[(length * 7 + i) % len(seed_coeffs)]
                  for i in range(len(basis))]
        total = total + elt_from_slice_coords(GENS3, N, basis,
                                              dict(enumerate(coords)))
    return total


def test_bch_expansion_through_length_3():
    x, y = g3("x"), g3("y")
    z = bch(x, y)
    expect = (x + y + Fraction(1, 2) * bracket(x, y)
              + Fraction(1, 12) * bracket(x, bracket(x, y))
              - Fraction(1, 12) * bracket(y, bracket(x, y)))
    assert z.truncated(3) == expect.truncated(3)


def test_bch_identity_and_inverse():
    x = g3("x")
    zero = Elt(GENS3, N, {})
    assert bch(x, zero) == x
    assert bch(zero, x) == x
    assert bch(x, -x).is_zero()


small_fractions = st.builds(Fraction,
                            st.integers(min_value=-9, max_value=9),
                            st.integers(min_value=1, max_value=7))


@st.composite
def bch_arguments(draw):
    """1-4 degree-0 Lie elements at N <= 5, on 2-3 letters of degree 0 or
    on up to 8 letters of degrees -1, 0 and 1, whose degree-0 Lyndon
    elements mix odd letters; later arguments may be zero or the negative
    of an earlier one."""
    if draw(st.booleans()):
        gens = GenSet([("x", 0), ("y", 0), ("z", 0)][:draw(st.integers(2, 3))])
        n = draw(st.integers(1, 5))
    else:
        # [a, b] for |a| = -1 and |b| = 1 is a degree-0 bracket at length 2
        k = draw(st.integers(2, 8))
        degs = [-1, 1] + draw(st.lists(st.sampled_from((-1, 0, 1)),
                                       min_size=k - 2, max_size=k - 2))
        gens = GenSet([("g%d" % i, d) for i, d in enumerate(degs)])
        n = draw(st.integers(2, 4 if k <= 5 else 3))
    # longest first, so that the first picks are brackets, not letters
    basis = [terms for k in range(n, 0, -1)
             for _, terms, _ in lyndon_slice_basis(gens, 0, k)]
    assume(basis)
    args = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("new", "zero", "neg") if args else ("new", "zero")))
        if kind == "zero":
            args.append(Elt(gens, n, {}))
        elif kind == "neg":
            args.append(-draw(st.sampled_from(args)))
        else:
            picks = draw(st.lists(st.tuples(st.integers(0, len(basis) - 1),
                                            small_fractions),
                                  min_size=1, max_size=6))
            x = Elt(gens, n, {})
            for i, c in picks:
                x = x + Elt(gens, n, basis[i]) * c
            args.append(x)
    return args


# two high letters of an 80-letter alphabet at N = 10: bch codes a word of
# length 10 as at least 79 (81^10 - 1) / 80 > 2^63, so its products run on
# big ints
HIGH = GenSet([("g%d" % i, 0) for i in range(80)])

# arguments with no word shorter than m = 2 or 3, whose Horner passes keep
# R_k only to length N - k m
X7, Y7, Z7 = (g3(name, 7) for name in "xyz")
XY7 = bracket(X7, Y7)


@given(bch_arguments())
@example([generator_elt(HIGH, 10, "g78"), generator_elt(HIGH, 10, "g79")])
@example([XY7, bracket(Y7, Z7) + bracket(XY7, Z7)])
@example([bracket(XY7, Z7) * Fraction(2, 3), bracket(bracket(Y7, Z7), X7)])
@example([X7, bracket(XY7, Y7), XY7 - Z7])
@example([Elt(GENS3, 4, {})])
@example([g3("x", 4), Elt(GENS3, 4, {}), g3("y", 4)])
@settings(max_examples=100, deadline=None)
def test_bch_matches_fraction_oracle(xs):
    out = bch(*xs)
    assert out.terms == bch_terms([x.terms for x in xs], xs[0].N)
    # emit_element divides each coefficient by the word length: an int
    # coefficient would come out as a float there
    assert all(type(c) is Fraction for c in out.terms.values())


def test_bch_of_a_non_lie_argument_fails_the_dynkin_check():
    # log(exp(xy)) = xy, a degree-0 element that is not a Lie element
    x, y = g3("x"), g3("y")
    xy = Elt(GENS3, N, {(0, 1): 1})
    assert not lie.is_lie(xy)
    with pytest.raises(RuntimeError, match="non-Lie"):
        bch(xy)
    with pytest.raises(RuntimeError, match="non-Lie"):
        bch(x, xy, y)


@given(st.lists(st.builds(Fraction,
                          st.integers(min_value=-6, max_value=6),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_bch_associative(coeffs):
    x = random_degree0(coeffs)
    y = random_degree0(list(reversed(coeffs)))
    z = random_degree0(coeffs[::2] + coeffs[1::2])
    assert bch(bch(x, y), z) == bch(x, bch(y, z))


@given(st.lists(st.builds(Fraction,
                          st.integers(min_value=-6, max_value=6),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=10))
@settings(max_examples=25, deadline=None)
def test_exp_ad_composes_along_bch(coeffs):
    x = random_degree0(coeffs)
    y = random_degree0(list(reversed(coeffs)))
    v = g3("z")
    assert exp_ad(bch(x, y), v) == exp_ad(x, exp_ad(y, v))


def test_exp_ad_is_bracket_automorphism():
    x, y, z = g3("x"), g3("y"), g3("z")
    u = bracket(y, z)
    assert exp_ad(x, u) == bracket(exp_ad(x, y), exp_ad(x, z))


def test_bch_rejects_nonzero_degree():
    g = GenSet([("a", -1), ("x", 0)])
    a = generator_elt(g, 3, "a")
    x = generator_elt(g, 3, "x")
    with pytest.raises(DomainError):
        bch(a, x)
    with pytest.raises(DomainError):
        exp_ad(a, x)


def test_bch_refuses_a_nonzero_degree_before_any_exp(monkeypatch):
    # the degrees come from the same pass that codes the arguments, and an
    # argument of even degree 0 may still have odd letters
    g = GenSet([("a", -1), ("c", 1), ("x", 0), ("d", 2)])
    a, c, x, d = (generator_elt(g, 4, n) for n in "acxd")
    even = bracket(a, c)
    assert bch(x, even) == bch(x, even, 0 * x)

    def no_exp(*args):
        raise AssertionError("an exp ran")

    monkeypatch.setattr(series, "_horner", no_exp)
    for bad in (a, d, x + d, bracket(a, a), even + c):
        with pytest.raises(DomainError,
                           match="^bch argument must have degree 0$"):
            bch(x, even, bad)


def test_bch_runs_one_horner_pass_per_argument_and_one_for_the_log(
        monkeypatch):
    calls = []
    real = series._horner

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(series, "_horner", counted)
    x, y, z = g3("x"), g3("y"), g3("z")
    zero = Elt(GENS3, N, {})
    for xs in ([x], [x, y], [x, bracket(y, z), zero], [x, y, z, -x]):
        del calls[:]
        bch(*xs)
        assert len(calls) == len(xs) + 1


def test_bernoulli_op_values():
    x, v = g3("x"), g3("y")
    out = bernoulli_op(x, v)
    assert out.length_part(1) == v
    assert out.length_part(2) == Fraction(-1, 2) * bracket(x, v)
    assert out.length_part(3) == Fraction(1, 12) * bracket(x, bracket(x, v))


def test_bernoulli_op_inverse_is_inverse():
    x, v = g3("x"), g3("y")
    assert bernoulli_op(x, bernoulli_op_inverse(x, v)) == v
    assert bernoulli_op_inverse(x, bernoulli_op(x, v)) == v


# letters of degree -1, 0 and 1: a is Maurer-Cartan, and d g = +-[g, a]
# on the others
MIXED = GenSet([("a", -1), ("x", 0), ("t", 1)])


def _mixed_dgl(n):
    a, x, t = (generator_elt(MIXED, n, name) for name in ("a", "x", "t"))
    return FreeDGL(MIXED, n, {0: Fraction(-1, 2) * bracket(a, a),
                              1: bracket(x, a), 2: -bracket(t, a)})


@st.composite
def adjoint_series_inputs(draw):
    """(N, x, v, a): a degree-0 conjugator x of mixed word lengths (maybe
    0), an argument v of degree -1, 0, 1 or 2 (maybe 0) and a Maurer-Cartan
    element a of _mixed_dgl(N), at N = 1..6."""
    n = draw(st.integers(1, 6))

    def element(degree):
        basis = [terms for k in range(1, n + 1)
                 for _, terms, _ in lyndon_slice_basis(MIXED, degree, k)]
        out = Elt(MIXED, n, {})
        if basis:
            for i, c in draw(st.lists(
                    st.tuples(st.integers(0, len(basis) - 1), small_fractions),
                    max_size=5)):
                out = out + Elt(MIXED, n, basis[i]) * c
        return out

    x = element(0)
    v = element(draw(st.integers(-1, 2)))
    a = draw(st.sampled_from((generator_elt(MIXED, n, "a"), Elt(MIXED, n, {}))))
    return n, x, v, a


def _mixed(n, text):
    return parse_element(text, MIXED, n)


@given(adjoint_series_inputs())
# conjugators with no word shorter than m = 2 or 3, whose Horner passes
# keep H_n only to length N - n m
@example((6, _mixed(6, "[a, t]"), _mixed(6, "t + 2 [x, t]"),
          generator_elt(MIXED, 6, "a")))
@example((6, _mixed(6, "[[x, a], t] - 1/2 [x, [a, t]]"),
          _mixed(6, "a + [[a, x], x]"), Elt(MIXED, 6, {})))
# a conjugator of word lengths 1 and 3
@example((5, _mixed(5, "x + [[x, a], t]"), _mixed(5, "[x, t]"),
          generator_elt(MIXED, 5, "a")))
# conjugators that commute with v
@example((5, _mixed(5, "2 x"), _mixed(5, "x"), generator_elt(MIXED, 5, "a")))
@example((6, _mixed(6, "1/2 [a, t]"), _mixed(6, "[a, t]"),
          Elt(MIXED, 6, {})))
@settings(max_examples=60, deadline=None)
def test_adjoint_series_match_fraction_oracle(inputs):
    n, x, v, a = inputs
    degs = MIXED.degrees

    def want(kind, arg):
        return oracle_ad_series(x.terms, arg, series_coefficients(kind, n),
                                degs, n)

    assert exp_ad(x, v).terms == want("exp", v.terms)
    assert bernoulli_op(x, v).terms == want("bernoulli", v.terms)
    assert bernoulli_op_inverse(x, v).terms == want("bernoulli_inverse",
                                                    v.terms)
    L = _mixed_dgl(n)
    table = {g: img.terms for g, img in L.diff.images.items()}
    dx = oracle_derivation(x.terms, table, degs, -1, n)
    assert gauge(x, a, L).terms == oracle_combine(
        want("exp", a.terms), want("bernoulli_inverse", dx), -1)


def _count_calls(monkeypatch, name):
    """Count the calls of lie.<name>, through lie or through series."""
    calls = []
    for module in (lie, series):
        real = getattr(module, name)

        def counted(*args, real=real):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_adjoint_series_run_no_bracket_and_one_combine(monkeypatch):
    n = 5
    L = _mixed_dgl(n)
    a, x, t = (L.gen(name) for name in ("a", "x", "t"))
    conj = x + bracket(a, t) + Fraction(2, 3) * bracket(x, bracket(a, t))
    v = t + bracket(x, t)
    brackets = _count_calls(monkeypatch, "bracket")
    combines = _count_calls(monkeypatch, "_combine")
    for op in (exp_ad, bernoulli_op, bernoulli_op_inverse):
        del brackets[:], combines[:]
        op(conj, v)
        assert (len(brackets), len(combines)) == (0, 1)
    # gauge: one _combine and no bracket once its MC check has run
    after_mc = []
    real_is_mc = series.is_mc

    def is_mc_then_count(L, a):
        ok = real_is_mc(L, a)
        after_mc.append((len(brackets), len(combines)))
        return ok
    monkeypatch.setattr(series, "is_mc", is_mc_then_count)
    del brackets[:], combines[:]
    gauge(conj, a, L)
    assert after_mc == [(len(brackets), len(combines) - 1)]


def test_adjoint_series_refuse_bad_conjugators():
    n = 4
    L = _mixed_dgl(n)
    a, x, t = (L.gen(name) for name in ("a", "x", "t"))
    other = GenSet([("a", -1), ("x", 0), ("t", 1), ("u", 0)])
    elsewhere = generator_elt(other, n, "x")
    for op in (exp_ad, bernoulli_op, bernoulli_op_inverse):
        with pytest.raises(DomainError, match="conjugator must have degree 0"):
            op(t, x)
        with pytest.raises(DomainError, match="conjugator must have degree 0"):
            op(x + a, x)
        with pytest.raises(ConfigError, match="different generator sets"):
            op(elsewhere, x)
        with pytest.raises(ConfigError, match="mixed truncations"):
            op(generator_elt(MIXED, n + 1, "x"), x)
        # the frame is checked even where the series is 0
        with pytest.raises(ConfigError, match="different generator sets"):
            op(x, Elt(other, n, {}))
    with pytest.raises(DomainError, match="gauge parameter must have degree 0"):
        gauge(t, a, L)
    with pytest.raises(ConfigError):
        gauge(elsewhere, a, L)


def _ls_dgl(n):
    """Free DGL on two MC vertices and one degree-0 edge, with the edge
    differential d(x) = ad_x(b) + sum B_k/k! ad_x^k(b - a)."""
    g = GenSet([("a", -1), ("b", -1), ("x", 0)])
    a = generator_elt(g, n, "a")
    b = generator_elt(g, n, "b")
    x = generator_elt(g, n, "x")
    dx = bracket(x, b) + bernoulli_op(x, b - a)
    return FreeDGL(g, n, {
        0: Fraction(-1, 2) * bracket(a, a),
        1: Fraction(-1, 2) * bracket(b, b),
        2: dx,
    })


def test_is_mc_examples():
    L = _ls_dgl(4)
    a = L.gen("a")
    b = L.gen("b")
    assert is_mc(L, a)
    assert is_mc(L, b)
    assert is_mc(L, L.zero() * 0)
    assert not is_mc(L, a + b)
    assert mc_residue(L, a + b) == bracket(a, b)
    with pytest.raises(DomainError):
        is_mc(L, L.gen("x"))


def test_gauge_identity_and_linear_part():
    L = _ls_dgl(5)
    a, b, x = L.gen("a"), L.gen("b"), L.gen("x")
    assert gauge(L.zero(), b, L) == b
    moved = gauge(x, b, L)
    # length-1 part drops by the linear part of d(x) = b - a
    assert moved.length_part(1) == b.length_part(1) - L.d1(x)
    assert is_mc(L, moved)


def test_gauge_connects_interval_endpoints():
    L = _ls_dgl(6)
    a, b, x = L.gen("a"), L.gen("b"), L.gen("x")
    assert gauge(x, b, L) == a


def test_gauge_is_group_action_along_bch():
    # one MC generator, two non-commuting degree-0 generators with d(x)=[x,a]
    g = GenSet([("a", -1), ("x", 0), ("y", 0)])
    n = 5
    a = generator_elt(g, n, "a")
    x = generator_elt(g, n, "x")
    y = generator_elt(g, n, "y")
    L = FreeDGL(g, n, {
        0: Fraction(-1, 2) * bracket(a, a),
        1: bracket(x, a),
        2: bracket(y, a),
    })
    assert L.check_d_squared() == []
    u = x + Fraction(1, 3) * bracket(x, y)
    v = y - 2 * x
    lhs = gauge(bch(u, v), a, L)
    rhs = gauge(u, gauge(v, a, L), L)
    assert lhs == rhs
    assert is_mc(L, lhs)


def test_gauge_rejects_non_mc_target():
    L = _ls_dgl(4)
    with pytest.raises(DomainError):
        gauge(L.gen("x"), L.gen("a") + L.gen("b"), L)


def test_twist_definitional_difference():
    L = _ls_dgl(5)
    a = L.gen("a")
    T = twist(L, a)
    for name in ("a", "b", "x"):
        g = L.gen(name)
        assert T.d(g) - L.d(g) == bracket(a, g)
    assert T.check_d_squared() == []
    # twist by zero changes nothing
    Z = twist(L, L.zero())
    for name in ("a", "b", "x"):
        assert Z.d(L.gen(name)) == L.d(L.gen(name))


def test_twist_rejects_non_mc():
    L = _ls_dgl(4)
    with pytest.raises(DomainError):
        twist(L, L.gen("a") + L.gen("b"))


def test_twisted_interval_differential():
    # d_a(a) = da + [a,a] = (1/2)[a,a]
    L = _ls_dgl(4)
    a = L.gen("a")
    T = twist(L, a)
    assert T.d(a) == Fraction(1, 2) * bracket(a, a)


def test_bch_text_is_pinned(capsys):
    # sha256 of the stdout of `freedgl bch --trunc 10 --count 2`: every word
    # of log(exp x1 exp x2) through length 10, Dynkin-checked in bch and
    # again in emit_element
    assert cli.run(["bch", "--trunc", "10", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e964da5b3b9d0aff421378972911714178a0b13c678bf568054d91b403b17335")
