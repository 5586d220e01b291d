"""Acceptance suite: one test per pinned criterion, timings included.

All arithmetic is exact; every comparison is equality of canonical forms.
Criteria with a wall-clock budget assert it explicitly.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from freedgl.lie import (Elt, FreeDGL, GenSet, bracket, generator_elt,
                         lyndon_slice_basis, zero_elt)
from freedgl.series import bch, bernoulli_op, exp_ad, is_mc, twist
from freedgl.simplex import (ModelFamily, build_model,
                             check_cosimplicial_identities,
                             check_model_axioms, equivariance_residues,
                             generator_homology, barycentric_mc, interval_model,
                             seed_family, subdivision_morphism, tetra_model,
                             triangle_model)
from freedgl.complexes import (minimal_model, model_of_complex,
                               parse_complex)
from freedgl.homology import (linear_homology, malcev_tower, pi_n,
                              tower_layers, verify_simplex)
from freedgl import whitney as wh

from oracles import free_lie_slice_dim, simplicial_betti

HALF = Fraction(1, 2)

POINT = "0\n"
TRIANGLE2 = "0 1 2\n"
CIRCLE = "0 1\n1 2\n0 2\n"
FIG8 = "0 1\n1 2\n0 2\n0 3\n3 4\n0 4\n"
WEDGE = "0 1\n1 2\n0 2\n0 3 4\n0 3 5\n0 4 5\n3 4 5\n"
TORUS = "".join("%d %d %d\n%d %d %d\n" % (i, (i + 1) % 7, (i + 3) % 7,
                                          i, (i + 2) % 7, (i + 3) % 7)
                for i in range(7))


def test_c01_bch_length_three_expansion():
    t0 = time.monotonic()
    gens = GenSet([("x", 0), ("y", 0)])
    x = generator_elt(gens, 3, "x")
    y = generator_elt(gens, 3, "y")
    got = bch(x, y)
    want = (x + y + HALF * bracket(x, y)
            + Fraction(1, 12) * bracket(x, bracket(x, y))
            - Fraction(1, 12) * bracket(y, bracket(x, y)))
    assert got == want
    assert time.monotonic() - t0 < 1.0


def test_c02_interval_model_closed_forms():
    t0 = time.monotonic()
    m = interval_model(6)
    L = m.dgl
    a = m.gen((0,))
    b = m.gen((1,))
    x = m.gen((0, 1))
    assert is_mc(L, a) and is_mc(L, b)
    dx = L.d(x)
    assert dx.length_part(1) == b - a
    assert dx.length_part(2) == HALF * bracket(x, a + b)
    assert not list(L.check_d_squared())
    form_b = bracket(x, b) + bernoulli_op(x, b - a)
    form_a = bracket(x, a) + bernoulli_op(-x, b - a)
    assert dx == form_b and form_a == form_b
    assert time.monotonic() - t0 < 5.0


def test_c03_conjugation_is_exponential_adjoint():
    N = 5
    gens = GenSet([("x", 0), ("y", 0), ("z", 0)])
    rng = random.Random(20260815)

    def rand_elt():
        out = Elt(gens, N, {})
        for k in range(1, N + 1):
            recs = lyndon_slice_basis(gens, 0, k)
            for rec in rng.sample(recs, min(2, len(recs))):
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if c:
                    out = out + c * Elt(gens, N, rec[1])
        return out

    for _ in range(20):
        x, y = rand_elt(), rand_elt()
        assert bch(x, y, -x) == exp_ad(x, y)


def test_c04_edge_conjugation_intertwines_endpoint_twists():
    m = interval_model(5)
    L = m.dgl
    d_a0 = twist(L, m.gen((0,)))
    d_a1 = twist(L, m.gen((1,)))
    x = m.gen((0, 1))
    for i in range(len(L.gens)):
        g = Elt(L.gens, L.N, {(i,): Fraction(1)})
        assert d_a0.d(exp_ad(x, g)) == exp_ad(x, d_a1.d(g))


def test_c05_subdivision_is_a_chain_map():
    g = subdivision_morphism(5)
    for name, r in g.chain_residues():
        assert r.is_zero(), name


def test_c06_triangle_twisted_top_is_edge_composite():
    m = triangle_model(5)
    tw = twist(m.dgl, m.gen((0,)))
    top = m.gen((0, 1, 2))
    assert tw.d(top) == bch(m.gen((0, 1)), m.gen((1, 2)), -m.gen((0, 2)))
    assert m.dgl.d1(top) == m.gen((1, 2)) - m.gen((0, 2)) + m.gen((0, 1))
    assert check_model_axioms(m)["ok"]


def test_c07_tetrahedron_and_inductive_builders():
    t0 = time.monotonic()
    assert check_model_axioms(tetra_model(4))["ok"]
    assert check_model_axioms(build_model(3, 4))["ok"]
    assert check_model_axioms(build_model(4, 3))["ok"]
    assert time.monotonic() - t0 < 120.0


def test_c08_symmetric_family_equivariance_and_identities():
    fam = ModelFamily(3, "symmetric")
    for n in (1, 2, 3):
        model = fam.model(n)
        for i in range(n):
            sigma = list(range(n + 1))
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            for name, r in equivariance_residues(model, tuple(sigma)):
                assert r.is_zero(), (n, sigma, name)
    for label, ok in check_cosimplicial_identities(fam, 3):
        assert ok, label


def test_c09_invariant_generator_homology_is_barycenter_line():
    for n, N in [(1, 4), (2, 4), (3, 3)]:
        m = seed_family(N).model(n)
        dims, reps = generator_homology(m, invariant=True)
        assert dims == {-1: 1}
        bary = zero_elt(m.gens, N)
        for i in range(n + 1):
            bary = bary + Fraction(1, n + 1) * m.gen((i,))
        assert reps[-1][0] == bary


def test_c10_barycentric_maurer_cartan():
    for n in (1, 2, 3):
        m = seed_family(4).model(n)
        x = barycentric_mc(m)
        assert is_mc(m.dgl, x)
        bary = zero_elt(m.gens, 4)
        for i in range(n + 1):
            bary = bary + Fraction(1, n + 1) * m.gen((i,))
        assert x.length_part(1) == bary


def test_c11_linear_homology_matches_simplicial_oracle():
    corpus = [POINT, TRIANGLE2, CIRCLE, FIG8, WEDGE, TORUS]
    for text in corpus:
        K = parse_complex(text)
        cm = model_of_complex(K, 2)
        dims, _ = linear_homology(cm.dgl)
        betti = simplicial_betti([tuple(f) for f in K.maximal])
        want = {p - 1: b for p, b in betti.items() if b}
        got = {q: d for q, d in dims.items() if d}
        assert got == want, (text, got, want)


def test_c12_minimal_models_pinned_shapes():
    M = minimal_model(parse_complex(CIRCLE), 0, 3)
    assert tuple(M.gens.degrees) == (0,)
    assert all(M.d(generator_elt(M.gens, M.N, n)).is_zero()
               for n in M.gens.names)

    M = minimal_model(parse_complex(WEDGE), 0, 3)
    assert sorted(M.gens.degrees) == [0, 1]
    assert all(M.d(generator_elt(M.gens, M.N, n)).is_zero()
               for n in M.gens.names)

    M = minimal_model(parse_complex(TRIANGLE2), 0, 3)
    assert len(M.gens) == 0
    M = minimal_model(parse_complex(POINT), 0, 3)
    assert len(M.gens) == 0


def test_c13_figure_eight_tower_layers_and_group_law():
    t0 = time.monotonic()
    K = parse_complex(FIG8)
    quotients = malcev_tower(K, 0, 5)
    layers = tower_layers(quotients)
    witt = [free_lie_slice_dim([0, 0], 0, k) for k in range(1, 6)]
    assert layers == witt == [2, 1, 2, 3, 6]

    q3 = quotients[2]
    coords = [q3.basis_coords(i) for i in range(q3.dim)]
    for ci in coords:
        for cj in coords:
            ij = q3.product(ci, cj)
            for ck in coords:
                assert q3.product(ij, ck) == q3.product(
                    ci, q3.product(cj, ck))

    q4 = quotients[3]
    rng = random.Random(13)
    for _ in range(4):
        a, b, c = (q4.basis_coords(rng.randrange(q4.dim)) for _ in range(3))
        assert q4.product(q4.product(a, b), c) == q4.product(
            a, q4.product(b, c))
    assert time.monotonic() - t0 < 300.0


def test_c14_homotopy_groups_and_simplex_recognition():
    pg = GenSet([("u", 1)])
    P = FreeDGL(pg, 3, {})
    assert pi_n(P, 2)["h"] == 1

    fg = GenSet([("x", 0), ("y", 0)])
    F = FreeDGL(fg, 2, {})
    group = pi_n(F, 1)
    xc = group.class_coords(generator_elt(fg, 2, "x"))
    yc = group.class_coords(generator_elt(fg, 2, "y"))
    assert group.product(xc, yc) != group.product(yc, xc)

    tm = triangle_model(2)
    tgens = GenSet([("f", 0), ("g", 0)])
    T = FreeDGL(tgens, 2, {})
    f = generator_elt(tgens, 2, "f")
    g = generator_elt(tgens, 2, "g")
    zero = Elt(tgens, 2, {})
    assign = {"a0": zero, "a1": zero, "a2": zero,
              "a01": g, "a12": f, "a02": bch(g, f), "a012": zero}
    assert verify_simplex(tm, T, assign)
    corrupted = dict(assign)
    corrupted["a02"] = f
    assert not verify_simplex(tm, T, corrupted)


def test_c15_whitney_identity_suite():
    from itertools import combinations

    def faces(n):
        for k in range(n + 1):
            yield from combinations(range(n + 1), k + 1)

    for n in range(5):
        for face in faces(n):
            c = wh.Cochain(n, {face: 1})
            assert wh.integrate_p(wh.whitney_i(c)) == c
            assert wh.face_integral(wh.elementary_form(face, n), face) == 1
            lhs = wh.exterior_d(wh.elementary_form(face, n))
            rhs = wh.zero_form(n)
            for q in range(n + 1):
                if q in face:
                    continue
                bigger = tuple(sorted(face + (q,)))
                sign = Fraction((-1) ** bigger.index(q))
                rhs = rhs + sign * wh.elementary_form(bigger, n)
            assert lhs == rhs
        top = wh.whitney_i(wh.Cochain(n, {tuple(range(n + 1)): 1}))
        ref = wh.one_form(n)
        for i in range(1, n + 1):
            ref = wh.wedge(ref, wh.dt_var(i, n))
        import math
        assert top == Fraction(math.factorial(n)) * ref


def test_c16_pipeline_is_hash_seed_independent(tmp_path):
    cpx = tmp_path / "fig8.cpx"
    cpx.write_text(FIG8)
    commands = [
        ["build-model", "--n", "2", "--trunc", "3"],
        ["model-of-complex", "--complex", str(cpx), "--trunc", "3"],
        ["homology", "--complex", str(cpx), "--trunc", "2"],
        ["malcev", "--complex", str(cpx), "--trunc", "3"],
        ["check", "--n", "2", "--trunc", "3"],
    ]

    def pipeline(seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        chunks = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "freedgl.cli"] + argv,
                capture_output=True, env=env, check=True)
            chunks.append(proc.stdout)
        return b"".join(chunks)

    first = pipeline("1")
    second = pipeline("31337")
    assert first and first == second
