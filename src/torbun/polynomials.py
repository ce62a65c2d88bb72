"""Sparse integer polynomials and rational functions with linear denominators.

Polynomial models elements of Sym M in coordinates x1..xn.  LinearFraction
models quotients whose denominator is a positive integer times a product of
primitive integer linear forms, kept in a canonical reduced shape so that
equality is literal equality of the parts.  Exact division by linear forms
(`divide_out`) and common denominators (`common_denominator`) live here
only; LinearFraction and the residue sums of `equivariant` both use them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .lattice import primitive, sign_normalize


def signed_sum(terms) -> str:
    """Render [(coeff, monomial)] as "a - 2*b + 3"; the monomial "" is the unit.

    Coefficients are nonzero integers; an empty sum renders as "0".
    """
    text = ""
    for c, monomial in terms:
        if not monomial:
            body = str(abs(c))
        elif abs(c) == 1:
            body = monomial
        else:
            body = f"{abs(c)}*{monomial}"
        if not text:
            text = "-" + body if c < 0 else body
        else:
            text += f" {'-' if c < 0 else '+'} {body}"
    return text or "0"


def power(base, k: int, one, check=lambda x: x):
    """base ** k by repeated squaring, given the ring's unit `one`.

    Stops as soon as a power of the base vanishes, so a huge exponent of a
    nilpotent class costs a handful of products.  Every product is passed
    through `check`, which may raise to bound the work.
    """
    if k < 0:
        raise ValueError("negative exponent")
    out = one
    while k:
        if k & 1:
            out = check(out * base)
        k >>= 1
        if k:
            base = check(base * base)
            if base.is_zero():
                return base
    return out


def sum_of_products(num_vars: int, pairs) -> "Polynomial":
    """The sum of p * q over the pairs (p, q), kept in one term dict and
    filtered once."""
    out = {}
    for p, q in pairs:
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return Polynomial._trusted(num_vars, {e: c for e, c in out.items() if c})


class Polynomial:
    """Multivariate polynomial with integer coefficients, stored sparsely.

    Polynomials are immutable: nothing writes to `terms` after construction,
    so arithmetic may return an operand itself (p + 0 is p, p * 1 is p).
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        self.num_vars = num_vars
        clean = {}
        for exps, c in (terms or {}).items():
            if c != 0:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict) -> "Polynomial":
        """A polynomial on terms as given: tuple exponents, no zero
        coefficient, and not changed afterwards."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls._trusted(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c: int) -> "Polynomial":
        return cls._trusted(num_vars, {(0,) * num_vars: c} if c else {})

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "Polynomial":
        e = [0] * num_vars
        e[i] = 1
        return cls(num_vars, {tuple(e): 1})

    @classmethod
    def linear_form(cls, coeffs) -> "Polynomial":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c != 0:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_homogeneous_of(self, d: int) -> bool:
        return all(sum(e) == d for e in self.terms)

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.num_vars, other)
        if not other.terms:
            return self
        if not self.terms and other.num_vars == self.num_vars:
            return other
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        return Polynomial._trusted(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        if not self.terms:
            return self
        return Polynomial._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.num_vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1 or not self.terms:
                return self
            return Polynomial._trusted(self.num_vars, {e: other * c for e, c in self.terms.items()} if other else {})
        if not self.terms:
            return self
        return sum_of_products(self.num_vars, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, Polynomial.constant(self.num_vars, 1))

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            other = Polynomial.constant(self.num_vars, other)
        return isinstance(other, Polynomial) and self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def compose(self, substitutions) -> "Polynomial":
        """Substitute substitution[i] (a Polynomial) for variable i."""
        if len(substitutions) != self.num_vars:
            raise ValueError("wrong number of substitutions")
        nv = substitutions[0].num_vars if substitutions else 0
        out = Polynomial.zero(nv)
        for e, c in self.terms.items():
            term = Polynomial.constant(nv, c)
            for sub, k in zip(substitutions, e):
                if k:
                    term = term * (sub if k == 1 else sub ** k)
            out = out + term
        return out

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        names = [f"x{i + 1}" for i in range(self.num_vars)]
        terms = []
        for e in sorted(self.terms, key=lambda e: (sum(e), tuple(-x for x in e))):
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            terms.append((self.terms[e], "*".join(factors)))
        return signed_sum(terms)

    def __repr__(self):
        return f"Polynomial({self.render()})"


def divide_exact(poly: Polynomial, form):
    """Exact quotient poly / linear_form(form), or None if not divisible.

    `form` is a primitive integer coefficient vector; x_p is its first
    variable with a nonzero coefficient c.  Long division in x_p: the terms
    of the remainder of highest degree k in x_p, divided by c, are the
    quotient's terms of degree k - 1 in x_p.  By Gauss's lemma the quotient
    of an integer polynomial by a primitive form is integral whenever the
    division is exact over Q, so a term that c does not divide, or a
    remainder of degree 0 in x_p, proves it is not; all of it runs on ints.
    """
    pivot = next((i for i, c in enumerate(form) if c != 0), None)
    if pivot is None:
        raise ValueError("zero form")
    c_piv = form[pivot]
    rest = [(i, c) for i, c in enumerate(form) if c != 0 and i != pivot]
    R = dict(poly.terms)
    Q = {}
    while R:
        k = max(e[pivot] for e in R)
        if k < 1:
            return None
        for e in [e for e in R if e[pivot] == k]:
            q, r = divmod(R.pop(e), c_piv)
            if r:
                return None
            qe = e[:pivot] + (k - 1,) + e[pivot + 1 :]
            Q[qe] = q
            # R -= q * x^qe * (the form without its pivot term)
            for i, c in rest:
                e2 = qe[:i] + (qe[i] + 1,) + qe[i + 1 :]
                c2 = R.get(e2, 0) - q * c
                if c2:
                    R[e2] = c2
                else:
                    del R[e2]
    # each quotient exponent is set once, to a nonzero q
    return Polynomial._trusted(poly.num_vars, Q)


def divide_out(poly: Polynomial, den: dict):
    """Divide poly by form^k for each {form: k} of den, one form at a time
    for as long as each division is exact: (quotient, {form: the power left
    undivided}), in den's order, with the powers of 0 dropped.  One pass
    suffices, since a form that does not divide poly divides no quotient
    of it."""
    left = {}
    for form, k in den.items():
        while k > 0:
            q = divide_exact(poly, form)
            if q is None:
                break
            poly, k = q, k - 1
        if k:
            left[form] = k
    return poly, left


def common_denominator(fractions):
    """LinearFractions over one denominator: (den, content, numerators),
    with den = {form: k}, every form at its highest power over the
    fractions, content the lcm of their contents, and each numerator scaled
    up to match, so that fraction i is numerators[i] / (content * prod
    form^k over den)."""
    den, content = {}, 1
    for q in fractions:
        for form, k in q.den.items():
            den[form] = max(den.get(form, 0), k)
        content = lcm(content, q.content)
    numerators = []
    for q in fractions:
        N = q.num * (content // q.content)
        for form, k in den.items():
            if k > q.den.get(form, 0):
                N = N * Polynomial.linear_form(form) ** (k - q.den.get(form, 0))
        numerators.append(N)
    return den, content, numerators


def _primitive_form(coeffs):
    """Normalize a rational coefficient vector to (factor, primitive form)
    with the form's first nonzero entry positive and factor in Q."""
    fr = [Fraction(c) for c in coeffs]
    if not any(fr):
        raise ValueError("zero linear form")
    d = lcm(*(c.denominator for c in fr))
    form = sign_normalize(primitive(tuple(int(c * d) for c in fr)))
    c, a = next((c, a) for c, a in zip(fr, form) if a)
    return c / a, form


class LinearFraction:
    """numerator / (content * product of primitive linear forms), canonical.

    Canonical means: forms are primitive with positive leading coefficient,
    no form divides the numerator exactly, and gcd(content, numerator
    coefficients) = 1 with content > 0.
    """

    __slots__ = ("num", "den", "content")

    def __init__(self, num: Polynomial, den=None, content: int = 1):
        if content == 0:
            raise ZeroDivisionError("zero content")
        den = {form: mult for form, mult in (den or {}).items() if mult}
        if content < 0:
            num = -num
            content = -content
        if num.is_zero():
            self.num, self.den, self.content = num, {}, 1
            return
        if num.degree() > 0:  # no primitive linear form divides a nonzero constant
            num, den = divide_out(num, den)
        g = gcd(num.content(), content)
        if g > 1:
            num = Polynomial(num.num_vars, {e: c // g for e, c in num.terms.items()})
            content //= g
        self.num = num
        self.den = den
        self.content = content

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "LinearFraction":
        return cls(Polynomial.zero(num_vars))

    @classmethod
    def inverse_of_product(cls, num_vars: int, forms, scale=Fraction(1)) -> "LinearFraction":
        """1 / (scale * prod(forms)) with rational coefficient vectors."""
        scale = Fraction(scale)
        prims = []
        for coeffs in forms:
            factor, prim = _primitive_form(coeffs)
            scale *= factor
            prims.append(prim)
        return cls.inverse_of_primitive(num_vars, prims, scale)

    @classmethod
    def inverse_of_primitive(cls, num_vars: int, prims, scale: Fraction) -> "LinearFraction":
        """1 / (scale * prod(prims)) for forms already in _primitive_form."""
        den: dict[tuple, int] = {}
        for prim in prims:
            den[prim] = den.get(prim, 0) + 1
        return cls(Polynomial.constant(num_vars, scale.denominator), den, scale.numerator)

    # -- queries -------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.num.num_vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den and self.content == 1

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num

    def degree(self):
        if self.num.is_zero():
            return None
        return self.num.degree() - sum(self.den.values())

    def __eq__(self, other):
        return (
            isinstance(other, LinearFraction)
            and self.num == other.num
            and self.den == other.den
            and self.content == other.content
        )

    def __hash__(self):
        return hash((self.num, frozenset(self.den.items()), self.content))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LinearFraction") -> "LinearFraction":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        den, content, (ns, no) = common_denominator((self, other))
        return LinearFraction(ns + no, den, content)

    def __neg__(self):
        return LinearFraction(-self.num, dict(self.den), self.content)

    def __sub__(self, other):
        return self + (-other)

    def poly_mul(self, p: Polynomial) -> "LinearFraction":
        return LinearFraction(self.num * p, dict(self.den), self.content)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        num = self.num.render()
        if self.is_polynomial():
            return num
        factors = []
        if self.content != 1:
            factors.append(str(self.content))
        for form in sorted(self.den):
            text = Polynomial.linear_form(form).render()
            if len([c for c in form if c != 0]) > 1:
                text = f"({text})"
            mult = self.den[form]
            factors.extend([text] * mult)
        den = " * ".join(factors)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num} / ({den})" if len(factors) > 1 else f"{num} / {den}"

    def __repr__(self):
        return f"LinearFraction({self.render()})"
