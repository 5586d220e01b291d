"""Independent oracles used by the test suite.

Nothing here imports the package under test.  Dimension counts come from the
graded Witt recursion; simplicial homology comes from a plain dense boundary
matrix elimination over Fraction; the BCH product comes from exp and log
power series over word->Fraction dicts.  The exact solve, derivation and
substitution oracles are plain Fraction loops over dicts: a dense row-reduced
echelon form, and the word-by-word derivation and substitution rules.
"""

from fractions import Fraction
from math import factorial, gcd
from functools import lru_cache
from itertools import combinations


# ---------------------------------------------------------------------------
# Graded Witt dimension counts
#
# For a multidegree beta (occurrence counts per generator) over generators of
# degrees d_i, write |beta| = sum(beta) and parity(beta) = sum(beta_i d_i)
# mod 2.  The number l(beta) of basis elements of the free graded Lie algebra
# in multidegree beta satisfies
#
#   sum over d | gcd(beta) of  eps(beta/d, d)/d * l(beta/d)
#       = (|beta| - 1)! / prod(beta_i!)
#
# where eps(alpha, d) = 1 when parity(alpha) is even, else +1 for odd d and
# -1 for even d.  Solving top-down gives l; the slice dimension for a fixed
# (degree, word length) sums l over the matching multidegrees.


def _necklace_rhs(beta):
    n = sum(beta)
    denom = 1
    for b in beta:
        denom *= factorial(b)
    return Fraction(factorial(n - 1), denom)


def _witt_l(beta, degrees, cache):
    if beta in cache:
        return cache[beta]
    g = 0
    for b in beta:
        g = gcd(g, b)
    total = _necklace_rhs(beta)
    for d in range(2, g + 1):
        if g % d:
            continue
        alpha = tuple(b // d for b in beta)
        parity = sum(a * deg for a, deg in zip(alpha, degrees)) % 2
        eps = 1 if parity == 0 else (1 if d % 2 else -1)
        total -= Fraction(eps, d) * _witt_l(alpha, degrees, cache)
    cache[beta] = total
    return total


def _multidegrees(m, k):
    """All tuples of m nonnegative ints summing to k."""
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _multidegrees(m - 1, k - first):
            yield (first,) + rest


def free_lie_slice_dim(degrees, degree, length):
    """Dimension of the (degree, word length) slice of the free graded Lie
    algebra on generators of the given degrees."""
    cache = {}
    total = Fraction(0)
    for beta in _multidegrees(len(degrees), length):
        if sum(b * d for b, d in zip(beta, degrees)) != degree:
            continue
        total += _witt_l(beta, tuple(degrees), cache)
    if total.denominator != 1 or total < 0:
        raise AssertionError("Witt recursion gave a non-integer: %s" % total)
    return int(total)


# ---------------------------------------------------------------------------
# Simplicial homology over Q from a list of maximal faces


def close_faces(maximal):
    """All nonempty faces of the complex generated by the maximal faces."""
    faces = set()
    for f in maximal:
        f = tuple(sorted(set(f)))
        for r in range(1, len(f) + 1):
            faces.update(combinations(f, r))
    return sorted(faces, key=lambda f: (len(f), f))

def dense_rank(rows, ncols):
    """Rank of a list-of-dict-rows matrix over Fraction."""
    rows = [dict(r) for r in rows if r]
    rank = 0
    for col in range(ncols):
        piv = None
        for i, r in enumerate(rows):
            if r.get(col):
                piv = i
                break
        if piv is None:
            continue
        prow = rows.pop(piv)
        pval = prow[col]
        rank += 1
        reduced = []
        for r in rows:
            v = r.get(col)
            if v:
                factor = v / pval
                for c, pc in prow.items():
                    acc = r.get(c, Fraction(0)) - factor * pc
                    if acc == 0:
                        r.pop(c, None)
                    else:
                        r[c] = acc
            if r:
                reduced.append(r)
        rows = reduced
    return rank


def simplicial_betti(maximal):
    """Unreduced rational Betti numbers, as a dict dim -> rank."""
    faces = close_faces(maximal)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    index = {}
    for dim, fl in by_dim.items():
        for i, f in enumerate(sorted(fl)):
            index[f] = i
    top = max(by_dim)
    ranks = {}
    for q in range(1, top + 1):
        rows = []
        for f in sorted(by_dim.get(q, [])):
            row = {}
            for j in range(len(f)):
                sub = f[:j] + f[j + 1:]
                row[index[sub]] = Fraction((-1) ** j)
            rows.append(row)
        ranks[q] = dense_rank(rows, len(by_dim.get(q - 1, [])))
    betti = {}
    for q in range(0, top + 1):
        betti[q] = len(by_dim.get(q, [])) - ranks.get(q, 0) - ranks.get(q + 1, 0)
    return betti


# ---------------------------------------------------------------------------
# BCH product in the truncated tensor algebra over Q
#
# Elements are dicts from words (tuples of letters) to nonzero Fractions; the
# empty word is the unit.  log(exp(a_1) ... exp(a_k)) is computed from the
# power series of exp and log, every coefficient a Fraction, words longer
# than N dropped.


def _concat(a, b, N, scale=Fraction(1)):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) > N:
                continue
            w = u + v
            acc = out.get(w, Fraction(0)) + cu * cv * scale
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
    return out


def _accumulate(out, terms, scale):
    for w, c in terms.items():
        acc = out.get(w, Fraction(0)) + scale * c
        if acc == 0:
            out.pop(w, None)
        else:
            out[w] = acc


def tensor_exp(terms, N):
    """exp of a word->Fraction dict without unit word, truncated at N."""
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for k in range(1, N + 1):
        power = _concat(power, terms, N, Fraction(1, k))
        if not power:
            break
        _accumulate(out, power, Fraction(1))
    return out


def tensor_log(terms, N):
    """log of a word->Fraction dict with unit part 1, truncated at N."""
    u = dict(terms)
    if u.pop((), Fraction(0)) != 1:
        raise ValueError("log needs unit part 1")
    out = {}
    power = {(): Fraction(1)}
    for k in range(1, N + 1):
        power = _concat(power, u, N)
        if not power:
            break
        _accumulate(out, power, Fraction((-1) ** (k + 1), k))
    return out


def bch_terms(args, N):
    """log(exp(a_1) ... exp(a_k)) for word->Fraction dicts, truncated at N."""
    prod = {(): Fraction(1)}
    for a in args:
        prod = _concat(prod, tensor_exp(a, N), N)
    return tensor_log(prod, N)


# ---------------------------------------------------------------------------
# Canonical exact solve from dense reduced row echelon forms
#
# Columns and right-hand sides are dicts index -> Fraction.  The solution of
# sum_j x_j * columns[j] = b puts the free variables at 0, so it lives on the
# pivot columns of rref(A), which are the greedy (leftmost) independent
# columns.  An infeasible b has one residual b - A y with no support on the
# greedy independent rows of A, the pivot columns of rref(A^T).


def _rref(rows, ncols):
    """Reduced row echelon form of a dense list of Fraction rows, in place;
    returns the pivot columns in order."""
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [c / lead for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [c - f * p for c, p in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def oracle_solve_columns(columns, b):
    """(x, None) with free variables 0, or (None, residual)."""
    coords = sorted(set(b).union(*columns))
    n = len(columns)
    aug = [[col.get(i, Fraction(0)) for col in columns] + [b.get(i, Fraction(0))]
           for i in coords]
    pivots = _rref(aug, n + 1)
    if n not in pivots:
        return {j: aug[r][n] for r, j in enumerate(pivots) if aug[r][n]}, None
    tr = [[col.get(i, Fraction(0)) for i in coords] for col in columns]
    independent = [coords[i] for i in _rref(tr, len(coords))]
    # A_P y = b_P is solvable for the independent rows P; r = b - A y
    sub = [[col.get(i, Fraction(0)) for col in columns] + [b.get(i, Fraction(0))]
           for i in independent]
    y = {j: sub[r][n] for r, j in enumerate(_rref(sub, n))}
    residual = {}
    for i in coords:
        c = b.get(i, Fraction(0)) - sum(
            (y[j] * columns[j].get(i, Fraction(0)) for j in y), Fraction(0))
        if c:
            residual[i] = c
    return None, residual


# ---------------------------------------------------------------------------
# Derivations and substitutions on word->Fraction dicts


def oracle_derivation(terms, images, degrees, shift, N):
    """The derivation of the given shift sending letter g to images[g] (a
    word->Fraction dict; missing letters go to 0), applied to terms word by
    word with the Koszul sign (-1)^(shift * degree of the prefix); words
    longer than N are dropped."""
    out = {}
    for w, c in terms.items():
        sign = 1
        for i, g in enumerate(w):
            for v, cv in images.get(g, {}).items():
                word = w[:i] + v + w[i + 1:]
                if len(word) <= N:
                    out[word] = out.get(word, Fraction(0)) + sign * c * cv
            if shift % 2 and degrees[g] % 2:
                sign = -sign
    return {w: c for w, c in out.items() if c}


def oracle_substitute(terms, images, N):
    """Replace every letter g of every word by the word->Fraction dict
    images[g] and expand the products, dropping words longer than N."""
    out = {}
    for w, c in terms.items():
        partial = {(): c}
        for g in w:
            partial = _concat(partial, images[g], N)
        for v, cv in partial.items():
            out[v] = out.get(v, Fraction(0)) + cv
    return {v: c for v, c in out.items() if c}
