"""Series arithmetic in the truncated tensor algebra.

Everything here terminates structurally: each bracket with a fixed element
raises word length by at least one, and words longer than the truncation N
vanish, so every series is a finite sum.  No tolerances exist anywhere.

Provided operations: Bernoulli numbers (first kind, B1 = -1/2), the BCH
product log(exp x . exp y) on degree-0 elements, exponentials of adjoint
derivations, the Bernoulli operator ad_x/(e^{ad_x}-1) and its series inverse
(e^{ad_x}-1)/ad_x, the gauge action of degree-0 elements on Maurer-Cartan
elements, the MC equation checker, and differential twisting d + ad_a.

The BCH exp/log runs on the arguments' integer numerators with each word
coded as one int: a word w of length n has code sum of (w[i] + 1) B^(n-1-i)
for B = len(gens) + 1, and a word->int dict is held as {n: {code:
numerator}} over the lengths that occur.  Since code(uv) = code(u) B^|v| +
code(v), the inner loop of a product is one multiply-add and one dict update
keyed by an int.  bch codes each argument once, runs exp and log each
through _power_sum and the products through _times, and decodes the log
once into one Elt over one denominator, which still passes the Dynkin Lie
check.  That check computes theta once over the merged result
(lie._theta_words): words are grouped by last letter, so a prefix sum
shared by many words is expanded once, not once per word.  The passing
verdict stays on the result, so emit_element does not check it again.

The adjoint series (exp_ad, the two Bernoulli operators and gauge) run on
integer numerators too, through _ad_terms: the words of the degree-0
conjugator's negative are bucketed by length once, each power (ad X)^n V is
a word->int dict formed from the last by lie._bracket_into, the one loop of
the bracket rule, and the series is one _combine of the powers over
dx^n dv, normalized once; gauge sums its two series in that one _combine.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial, gcd, lcm

from .lie import (
    ConfigError, DomainError,
    Elt, FreeDGL, _bracket_into, _combine, _same_frame, bracket,
    dynkin_verify, word_buckets,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def bernoulli_numbers(n):
    """B_0..B_n, first kind: B_1 = -1/2, from the pascal-row recurrence."""
    out = [ONE]
    for m in range(1, n + 1):
        acc = ZERO
        for j in range(m):
            acc += comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return out


_BERNOULLI_CACHE = []


def bernoulli(n):
    global _BERNOULLI_CACHE
    if n >= len(_BERNOULLI_CACHE):
        _BERNOULLI_CACHE = bernoulli_numbers(max(n, 2 * len(_BERNOULLI_CACHE) + 4))
    return _BERNOULLI_CACHE[n]


def _require_degree(x, d, what):
    if not x.has_degree(d):
        raise DomainError("%s must have degree %d" % (what, d))


# ---------------------------------------------------------------------------
# exp/log with the unit word, on coded words over one denominator
#
# A word w of length n is coded as the int sum of (w[i] + 1) B^(n-1-i) for
# B = len(gens) + 1, so code(uv) = code(u) B^|v| + code(v), and a word->int
# dict as {n: {code: numerator}} over the lengths n that occur.  An argument
# X = A/D has
#     exp(X) = sum_k A^k (N!/k!) D^(N-k)  /  N! D^N,
# the exponentials multiply with the gcd stripped after each factor, and the
# product P = (E + U)/E (U without the unit word, code 0) has
#     log(P) = sum_k (-1)^(k+1) U^k (L/k) E^(N-k)  /  L E^N,  L = lcm(1..N).


def _coded(num, B):
    """The coded dict of the word->int dict num."""
    out = {}
    for w, c in num.items():
        code = 0
        for i in w:
            code = code * B + i + 1
        group = out.get(len(w))
        if group is None:
            out[len(w)] = {code: c}
        else:
            group[code] = c
    return out


def _right_factor(b, Bpow):
    """(length, B^length, items) for each length group of the coded dict b,
    shortest first: the form _times reads its right factor in."""
    return [(n, Bpow[n], b[n].items()) for n in sorted(b)]


def _times(a, right, N):
    """The product of the coded dict a with the _right_factor right,
    truncated at N.  Numerators that cancel stay, as 0."""
    out = {}
    for m, group in a.items():
        for n, scale, items in right:
            if m + n > N:
                break
            acc = out.get(m + n)
            if acc is None:
                acc = out[m + n] = {}
            get = acc.get
            for u, cu in group.items():
                u *= scale
                for v, cv in items:
                    w = u + v
                    acc[w] = get(w, 0) + cu * cv
    return out


def _power_sum(A, N, Bpow, scale):
    """sum over k = 1..N of scale(k) * A^k, for the coded dict A without
    the unit word and int scale(k), truncated at N.  Numerators that cancel
    stay, as 0."""
    if not A:
        return {}
    right = _right_factor(A, Bpow)
    out = {}
    power = A
    k = 1
    while True:
        s = scale(k)
        for n, group in power.items():
            acc = out.get(n)
            if acc is None:
                out[n] = {w: c * s for w, c in group.items()}
            else:
                get = acc.get
                for w, c in group.items():
                    acc[w] = get(w, 0) + c * s
        k += 1
        # A^k has no word shorter than k times A's shortest
        if k * right[0][0] > N:
            return out
        power = _times(power, right, N)


def _exp_numerators(A, D, N, Bpow):
    """(numerators, denominator) of exp(A/D) truncated at N, A coded."""
    fact = factorial(N)
    out = _power_sum(A, N, Bpow, lambda k: fact // factorial(k) * D ** (N - k))
    out[0] = {0: fact * D ** N}
    return out, fact * D ** N


def _log_numerators(P, E, N, Bpow):
    """(numerators, denominator) of log(P/E) for a coded grouplike P/E,
    that is one whose unit word has numerator E."""
    L = lcm(*range(1, N + 1))
    U = {n: group for n, group in P.items() if n}
    return _power_sum(U, N, Bpow, lambda k: (L // k) * E ** (N - k)
                      * (1 if k & 1 else -1)), L * E ** N


@lru_cache(maxsize=32)
def _word_table(B, N):
    """(k, B^k, table): table maps the code of every word of length 1..k
    over B - 1 letters to the word, for k >= 1 the largest with k <= N,
    k <= 16 and (B - 1)^k <= 256.  A code is at least B^k exactly when its
    word is longer than k."""
    n = B - 1
    k = 1
    while k < min(N, 16) and n ** (k + 1) <= 256:
        k += 1
    level = {i + 1: (i,) for i in range(n)}
    table = dict(level)
    for _ in range(k - 1):
        level = {c * B + i + 1: w + (i,) for c, w in level.items()
                 for i in range(n)}
        table.update(level)
    return k, B ** k, table


def _decoded(P, B, N):
    """The word->int dict of the coded dict P of words of length <= N,
    without its zero numerators: a word of length <= k is read off
    _word_table at once, a longer one k letters at a time from the right."""
    k, Bk, table = _word_table(B, N)
    out = {}
    for n, group in P.items():
        if n <= k:
            out.update({table[code]: c for code, c in group.items() if c})
            continue
        for code, c in group.items():
            if c:
                word = ()
                while code >= Bk:
                    code, low = divmod(code, Bk)
                    word = table[low] + word
                out[table[code] + word] = c
    return out


def bch(*xs):
    """log(exp(x1) ... exp(xk)) for degree-0 elements, all at one truncation.

    The exp, products and log run on coded words (see above): each argument
    is coded once and the log decoded once.  The result is checked to be a
    Lie element (left-to-right bracketing test) before being returned; a
    failure would mean corrupted arithmetic.
    """
    if not xs:
        raise DomainError("bch needs at least one argument")
    first = xs[0]
    for x in xs[1:]:
        if (x.gens is not first.gens and x.gens != first.gens) or x.N != first.N:
            raise ConfigError("bch arguments must share generators and truncation")
    for x in xs:
        _require_degree(x, 0, "bch argument")
    N = first.N
    B = len(first.gens) + 1
    Bpow = [B ** n for n in range(N + 1)]
    prod, den = {}, 1
    for x in xs:
        if not x.num:
            continue
        e, d = _exp_numerators(_coded(x.num, B), x.den, N, Bpow)
        prod = _times(prod, _right_factor(e, Bpow), N) if prod else e
        den *= d
        g = gcd(den, *chain.from_iterable(map(dict.values, prod.values())))
        if g > 1 or any(0 in group.values() for group in prod.values()):
            prod = {n: {w: c // g for w, c in group.items() if c}
                    for n, group in prod.items()}
            den //= g
    num, den = _log_numerators(prod, den, N, Bpow)
    out = Elt._from_num(first.gens, N, _decoded(num, B, N), den)
    ok, defects = dynkin_verify(out)
    if not ok:
        raise RuntimeError(
            "bch produced a non-Lie element at lengths %s" % [n for n, _ in defects])
    return out


def _ad_terms(x, v, coeff_of_n):
    """The _combine items (p, den, numerators) of the sum over n >= 0 of
    coeff_of_n(n) * ad_x^n(v), for x of degree 0 over v's frame.

    With x = X/dx and v = V/dv, ad_x^n(v) = (ad X)^n V / (dx^n dv).  Each
    power is formed from the last by [X, C] = C(-X) - (-X)C: x has even
    degree, so no Koszul parity is read, and one lie._bracket_into per
    length group of C meets the words of -X, bucketed once, that fit in N.
    The grouping drops the words that cancelled; power n has no word
    shorter than n + 1, so at most N powers are nonzero."""
    _same_frame(x, v)
    N = x.N
    fits = word_buckets([(w, -c) for w, c in x.num.items()], N)
    cur, den = v.num, v.den
    items = []
    n = 0
    while True:
        groups = [[] for _ in range(N + 1)]
        for item in cur.items():
            if item[1]:
                groups[len(item[0])].append(item)
        if not any(groups):
            return items
        c = coeff_of_n(n)
        if c:
            items.append((c.numerator, c.denominator * den, cur))
        cur = {}
        for k in range(1, N):
            if groups[k] and fits[N - k]:
                _bracket_into(cur, groups[k], fits[N - k], -1)
        den *= x.den
        n += 1


def _exp_coeff(n):
    return Fraction(1, factorial(n))


def _bernoulli_coeff(n):
    return bernoulli(n) / factorial(n)


def _bernoulli_inverse_coeff(n):
    return Fraction(1, factorial(n + 1))


def exp_ad(x, v):
    """e^{ad_x}(v) for |x| = 0."""
    _require_degree(x, 0, "exp_ad conjugator")
    return _combine(x.gens, x.N, _ad_terms(x, v, _exp_coeff))


def bernoulli_op(x, v):
    """(ad_x / (e^{ad_x} - 1))(v) = sum of (B_n/n!) ad_x^n(v), |x| = 0."""
    _require_degree(x, 0, "bernoulli_op conjugator")
    return _combine(x.gens, x.N, _ad_terms(x, v, _bernoulli_coeff))


def bernoulli_op_inverse(x, v):
    """((e^{ad_x} - 1) / ad_x)(v): the series inverse of bernoulli_op."""
    _require_degree(x, 0, "bernoulli_op_inverse conjugator")
    return _combine(x.gens, x.N, _ad_terms(x, v, _bernoulli_inverse_coeff))


def is_mc(L, a):
    """Truth of da + (1/2)[a,a] = 0 mod words longer than N; |a| = -1."""
    if not a.has_degree(-1):
        raise DomainError("Maurer-Cartan candidates must have degree -1")
    return mc_residue(L, a).is_zero()


def mc_residue(L, a):
    return L.d(a) + Fraction(1, 2) * bracket(a, a)


def gauge(x, a, L):
    """Action of a degree-0 element x on an MC element a:

        x . a = e^{ad_x}(a) - ((e^{ad_x} - 1)/ad_x)(dx)

    The result is again MC; failures of the input MC check are domain errors.
    Both series come from _ad_terms and are summed by one _combine.
    """
    _require_degree(x, 0, "gauge parameter")
    if not is_mc(L, a):
        raise DomainError("gauge target fails the Maurer-Cartan check")
    return _combine(x.gens, x.N, _ad_terms(x, a, _exp_coeff)
                    + _ad_terms(x, L.d(x),
                                lambda n: -_bernoulli_inverse_coeff(n)))


def twist(L, a):
    """The DGL with the same generators and differential g -> dg + [a, g]."""
    if not is_mc(L, a):
        raise DomainError("twisting requires a Maurer-Cartan element")
    images = {}
    for i in range(len(L.gens)):
        g = Elt(L.gens, L.N, {(i,): ONE})
        img = L.d(g) + bracket(a, g)
        if not img.is_zero():
            images[i] = img
    return FreeDGL._trusted(L.gens, L.N, images)
