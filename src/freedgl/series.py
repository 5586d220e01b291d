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
coded as one int by lie's code/decode pair: a word w of length n has code
sum of (w[i] + 1) B^(n-1-i) for B = len(gens) + 1, and a word->int dict is
held here as {n: {code: numerator}} over the lengths that occur.  Since
code(uv) = code(u) B^|v| + code(v), the inner loop of a product is one
multiply-add and one dict update keyed by an int.  bch codes each argument
once with lie._code, whose (length, degree) groups are also its degree-0
check, folds each argument into the running product P <- P exp(x) by one
truncated Horner pass (_horner) and takes the log by one more, and checks
the log, in lowest terms, with the coded Dynkin map (lie._lie_residues)
before lie._decode turns it into one Elt over one denominator.  The result
is marked Lie, so emit_element does not check it again.

A Horner pass builds sum_k c_k P A^k from the last k down as
R_k = c_k P + R_(k+1) A, and since R_k still meets k factors A, each of
length at least A's shortest, it is kept only to the lengths that can still
reach N: no power A^k is built in full and then summed.

The adjoint series (exp_ad, the two Bernoulli operators and gauge) run on
integer numerators too, through _ad_terms: the words of the degree-0
conjugator's negative are bucketed by length once, and the series is the
same truncated Horner pass over ad X, H_n = a_n V + [X, H_(n+1)] with int
a_n, each bracket one lie._bracket_into, the one loop of the bracket rule.
Each series is one _combine item, normalized once; gauge sums its two
series in that one _combine.
"""

from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, lcm

from .lie import (
    DomainError,
    Elt, FreeDGL, _bracket_into, _check_frame, _code, _combine, _decode,
    _lie_residues, bracket, word_buckets,
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
# A word is coded by lie._code, so code(uv) = code(u) B^|v| + code(v), and
# a word->int dict is held as {n: {code: numerator}} over the lengths n
# that occur; the unit word has code 0.  Every series here is one pass of
# _horner over a coded dict A with no word shorter than m: A^k has none
# shorter than k m, so it reaches N only for k <= K = N // m.  With
# X = A/D,
#     P exp(X) = sum_k P A^k (K!/k!) D^(K-k)  /  K! D^K,
# and the grouplike P/E = (E + U)/E (U without the unit word, shortest
# length m, K = N // m) has
#     log(P/E) = sum_k (-1)^(k+1) U^k (L/k) E^(K-k)  /  L E^K,  L = lcm(1..K).


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


def _horner(P, A, coeffs, N, Bpow):
    """sum over k of coeffs[k] * P A^k for the coded dicts P and A, A
    without the unit word and int coeffs, truncated at N, by Horner's rule
    R_k = c_k P + R_(k+1) A from the last k down to R_0.  R_k reaches R_0
    through k more factors A, each of length at least m, A's shortest, so
    it is kept only to length N - k m.  Numerators that cancel stay, as 0."""
    right = _right_factor(A, Bpow)
    m = right[0][0] if right else 0
    R = {}
    for k in range(len(coeffs) - 1, -1, -1):
        top = N - k * m
        if R:
            R = _times(R, right, top)
        c = coeffs[k]
        if c:
            for n, group in P.items():
                if n <= top:
                    acc = R.get(n)
                    if acc is None:
                        R[n] = {w: c * v for w, v in group.items()}
                    else:
                        get = acc.get
                        for w, v in group.items():
                            acc[w] = get(w, 0) + c * v
    return R


def _lowest_terms(P, den):
    """(P, den) for the coded dict P over den with the gcd of den and the
    numerators divided out and the zero numerators dropped."""
    g = gcd(den, *chain.from_iterable(map(dict.values, P.values())))
    if g > 1 or any(0 in group.values() for group in P.values()):
        P = {n: {w: c // g for w, c in group.items() if c}
             for n, group in P.items()}
        den //= g
    return P, den


def bch(*xs):
    """log(exp(x1) ... exp(xk)) for degree-0 elements, all at one truncation.

    The exp, products and log run on coded words (see above): each argument
    is coded once, by lie._code, whose (length, degree) groups also refuse
    an argument of another degree before any exp runs.  Each argument is
    folded into the running product by one _horner pass, P <- P exp(x), and
    the log is one more.  The coded log is checked to be a Lie element
    (left-to-right bracketing test) and then decoded once into an element
    marked Lie; a failure would mean corrupted arithmetic.
    """
    if not xs:
        raise DomainError("bch needs at least one argument")
    first = xs[0]
    for x in xs[1:]:
        _check_frame(x, first.gens, first.N)
    gens = first.gens
    args = []
    for x in xs:
        groups = _code(x.num.items(), gens)
        if any(d for _, d in groups):
            raise DomainError("bch argument must have degree 0")
        args.append(({n: group for (n, _), group in groups.items()}, x.den))
    N = first.N
    B = len(gens) + 1
    Bpow = [B ** n for n in range(N + 1)]
    prod, den = {0: {0: 1}}, 1
    for A, D in args:
        K = N // min(A) if A else 0
        f = factorial(K)
        coeffs = [f // factorial(k) * D ** (K - k) for k in range(K + 1)]
        prod, den = _lowest_terms(_horner(prod, A, coeffs, N, Bpow),
                                  den * f * D ** K)
    # prod / den is grouplike: its unit word's numerator is den
    U = {n: group for n, group in prod.items() if n and group}
    K = N // min(U) if U else 0
    L = lcm(*range(1, K + 1))
    coeffs = [0] + [(L // k) * den ** (K - k) * (1 if k & 1 else -1)
                    for k in range(1, K + 1)]
    num, den = _lowest_terms(_horner({0: {0: 1}}, U, coeffs, N, Bpow),
                             L * den ** K)
    groups = {(n, 0): group for n, group in num.items()}
    bad = _lie_residues(groups, gens)
    if bad:
        raise RuntimeError(
            "bch produced a non-Lie element at lengths %s" % sorted(bad))
    out = Elt._from_num(gens, N, _decode(groups.values(), gens, N), den)
    out._lie = True
    return out


def _ad_terms(x, v, coeff_of_n):
    """The _combine items (p, den, numerators) of the sum over n >= 0 of
    coeff_of_n(n) * ad_x^n(v), for x of degree 0 over v's frame: one item,
    or none when v is 0.

    With x = X/dx and v = V/dv, ad_x^n(v) = (ad X)^n V / (dx^n dv).  If X's
    shortest word has length m and V's has length l, (ad X)^n V is 0 past
    n = M = (N - l) // m, and the series is H_0 / (Q dx^M dv) for Q the lcm
    of the denominators of c_n = coeff_of_n(n), n <= M, by Horner's rule
    H_n = a_n V + [X, H_(n+1)] with the int a_n = Q c_n dx^(M-n).  H_n
    reaches H_0 through n more brackets with X, so it is kept only to
    length N - n m.  x has even degree, so [X, C] = C(-X) - (-X)C reads no
    Koszul parity, and one lie._bracket_into per length group of C meets
    the words of -X, bucketed once, that fit."""
    _check_frame(x, v.gens, v.N)
    X, V = x.num, v.num
    if not V:
        return []
    N = x.N
    m = min(map(len, X)) if X else N + 1
    vs = sorted(V, key=len)   # V's words, shortest first
    M = (N - len(vs[0])) // m
    coeffs = [coeff_of_n(n) for n in range(M + 1)]
    Q = lcm(*[c.denominator for c in coeffs])
    fits = word_buckets([(w, -c) for w, c in X.items()], N)
    H = {}
    for n in range(M, -1, -1):
        top = N - n * m
        if H:
            # H_(n+1) has no word longer than top - m
            groups = [[] for _ in range(top)]
            for item in H.items():
                if item[1]:
                    groups[len(item[0])].append(item)
            H = {}
            for k in range(1, top):
                if groups[k] and fits[top - k]:
                    _bracket_into(H, groups[k], fits[top - k], -1)
        c = coeffs[n]
        if c:
            a = Q // c.denominator * c.numerator * x.den ** (M - n)
            get = H.get
            for w in vs:
                if len(w) > top:
                    break
                H[w] = get(w, 0) + a * V[w]
    return [(1, Q * x.den ** M * v.den, H)]


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
