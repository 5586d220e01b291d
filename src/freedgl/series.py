"""Series arithmetic in the truncated tensor algebra.

Everything here terminates structurally: each bracket with a fixed element
raises word length by at least one, and words longer than the truncation N
vanish, so every series is a finite sum.  No tolerances exist anywhere.

Provided operations: Bernoulli numbers (first kind, B1 = -1/2), the BCH
product log(exp x . exp y) on degree-0 elements, exponentials of adjoint
derivations, the Bernoulli operator ad_x/(e^{ad_x}-1) and its series inverse
(e^{ad_x}-1)/ad_x, the gauge action of degree-0 elements on Maurer-Cartan
elements, the MC equation checker, and differential twisting d + ad_a.

The BCH exp/log runs on the arguments' integer numerators (the integer word
kernel of the lie module); the result is one Elt over one denominator, and
it still passes the Dynkin Lie check.  That check computes theta once over
the merged result (lie._theta_words): words are grouped by last letter, so
a prefix sum shared by many words is expanded once, not once per word.  The
passing verdict stays on the result, so emit_element does not check it
again.

The adjoint series (exp_ad, the two Bernoulli operators and gauge) run on
integer numerators too, through _ad_terms: the degree-0 conjugator's words
are bucketed by length once, each power (ad X)^n V is a word->int dict
formed from the last by [X, C] = XC - CX, and the series is one _combine of
the powers over dx^n dv, normalized once; gauge sums its two series in that
one _combine.
"""

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .lie import (
    ConfigError, DomainError,
    Elt, FreeDGL, _combine, _same_frame, bracket, dynkin_verify, int_concat,
    word_buckets,
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
# exp/log with the unit word, on integer numerators over one denominator
#
# An argument X = A/D (A a word->int dict) has
#     exp(X) = sum_k A^k (N!/k!) D^(N-k)  /  N! D^N,
# the exponentials multiply as integer dicts with the gcd stripped after each
# factor, and the product P = (E + U)/E (U without the unit word) has
#     log(P) = sum_k (-1)^(k+1) U^k (L/k) E^(N-k)  /  L E^N,  L = lcm(1..N).
# The result is reduced to lowest terms once.


def _exp_numerators(A, D, N):
    """(numerators, denominator) of exp(A/D) truncated at N."""
    fits = word_buckets(A.items(), N)
    fact = factorial(N)
    out = {(): fact * D ** N}
    power = {(): 1}
    for k in range(1, N + 1):
        power = int_concat(power, fits, N)
        if not power:
            break
        scale = fact // factorial(k) * D ** (N - k)
        for w, c in power.items():
            out[w] = out.get(w, 0) + c * scale
    return out, fact * D ** N


def _log_numerators(P, E, N):
    """(numerators, denominator) of log(P/E) for a grouplike P/E, that is
    one whose unit word has numerator E."""
    U = {w: c for w, c in P.items() if w}
    fits = word_buckets(U.items(), N)
    L = lcm(*range(1, N + 1))
    out = {}
    power = {(): 1}
    for k in range(1, N + 1):
        power = int_concat(power, fits, N)
        if not power:
            break
        scale = (L // k) * E ** (N - k)
        if not k & 1:
            scale = -scale
        for w, c in power.items():
            out[w] = out.get(w, 0) + c * scale
    return out, L * E ** N


def bch(*xs):
    """log(exp(x1) ... exp(xk)) for degree-0 elements, all at one truncation.

    The result is checked to be a Lie element (left-to-right bracketing test)
    before being returned; a failure would mean corrupted arithmetic.
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
    prod, den = {(): 1}, 1
    for x in xs:
        if not x.num:
            continue
        e, d = _exp_numerators(x.num, x.den, N)
        prod = int_concat(prod, word_buckets(e.items(), N), N)
        den *= d
        g = gcd(den, *prod.values())
        if g > 1:
            prod = {w: c // g for w, c in prod.items()}
            den //= g
    num, den = _log_numerators(prod, den, N)
    out = Elt._from_num(first.gens, N, num, den)
    ok, defects = dynkin_verify(out)
    if not ok:
        raise RuntimeError(
            "bch produced a non-Lie element at lengths %s" % [n for n, _ in defects])
    return out


def _ad_terms(x, v, coeff_of_n):
    """The _combine items (p, den, numerators) of the sum over n >= 0 of
    coeff_of_n(n) * ad_x^n(v), for x of degree 0 over v's frame.

    With x = X/dx and v = V/dv, ad_x^n(v) = (ad X)^n V / (dx^n dv).  The
    words of X are bucketed by length once, and each power is formed from
    the last as a word->int dict by [X, C] = XC - CX: x has even degree, so
    no Koszul sign is read, and a word u of C meets only the words of X that
    fit in N - len(u).  The powers are never bucketed; power n has no word
    shorter than n + 1, so the loop ends after at most N nonzero powers."""
    _same_frame(x, v)
    N = x.N
    fits = word_buckets(x.num.items(), N)
    cur, den = v.num, v.den
    items = []
    n = 0
    while cur:
        c = coeff_of_n(n)
        if c:
            items.append((c.numerator, c.denominator * den, cur))
        out = {}
        get = out.get
        for u, cu in cur.items():
            for w, cw in fits[N - len(u)]:
                p = cw * cu
                k = w + u
                out[k] = get(k, 0) + p
                k = u + w
                out[k] = get(k, 0) - p
        cur = {k: c for k, c in out.items() if c}
        den *= x.den
        n += 1
    return items


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
