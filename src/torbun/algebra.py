"""Finite-rank graded commutative rings over Z and the twisting map.

A GradedAlgebra models the intersection ring of a smooth base variety,
with homology classes represented by their Poincare-dual cohomology
classes.  A MixingMap sends lattice characters to degree-one classes and
extends multiplicatively to polynomials.
"""

from __future__ import annotations

from .polynomials import Polynomial, power, signed_sum


class GradedAlgebra:
    """Graded commutative Z-algebra with a finite monomial-style basis.

    basis element 0 is the unit; the multiplication table is checked for
    commutativity, associativity and unitality when the algebra is built.
    The algebra keeps one zero and one unit element, which `zero()` and
    `one()` return, and each basis pair's product as a tuple of
    (index, coefficient) in `products[i][j]`, built here once.
    """

    def __init__(self, names, degrees, table, top_degree, check=True):
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.top_degree = top_degree
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate basis names")
        if self.degrees[0] != 0 or sum(1 for d in self.degrees if d == 0) != 1:
            raise ValueError("degree-zero basis must be exactly the unit")
        if any(d > top_degree for d in self.degrees):
            raise ValueError("basis element above top degree")
        # table[(i, j)] for i <= j: dict basis_index -> coefficient
        self.table = {}
        for (i, j), val in table.items():
            key = (i, j) if i <= j else (j, i)
            self.table[key] = {k: c for k, c in val.items() if c != 0}
        n = len(self.names)
        self.products = tuple(tuple(tuple(self.mul_basis(i, j).items()) for j in range(n)) for i in range(n))
        self._zero = AlgebraElement._trusted(self, {})
        self._one = AlgebraElement._trusted(self, {0: 1})
        if check:
            self._check()

    def _check(self):
        n = len(self.names)
        for i in range(n):
            got = self.mul_basis(0, i)
            if got != {i: 1}:
                raise ValueError("basis element 0 is not a unit")
        for i in range(n):
            for j in range(n):
                prod = self.mul_basis(i, j)
                d = self.degrees[i] + self.degrees[j]
                if d > self.top_degree:
                    if prod:
                        raise ValueError("product above top degree must vanish")
                for k, c in prod.items():
                    if self.degrees[k] != d:
                        raise ValueError("multiplication table is not graded")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self._mul_coeffs(self.mul_basis(i, j), k)
                    right = self._mul_coeffs(self.mul_basis(j, k), i)
                    if left != right:
                        raise ValueError("multiplication table is not associative")

    def mul_basis(self, i: int, j: int) -> dict:
        key = (i, j) if i <= j else (j, i)
        return self.table.get(key, {})

    def _mul_coeffs(self, coeffs: dict, k: int) -> dict:
        out = {}
        for i, c in coeffs.items():
            for m, d in self.mul_basis(i, k).items():
                out[m] = out.get(m, 0) + c * d
        return {m: c for m, c in out.items() if c != 0}

    # -- element constructors -------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return self._zero

    def one(self) -> "AlgebraElement":
        return self._one

    def basis_element(self, name: str) -> "AlgebraElement":
        return AlgebraElement._trusted(self, {self.index[name]: 1})

    def combine(self, terms) -> "AlgebraElement":
        """The sum of n * a * b over the triples (n, a, b) of terms, with b
        None for the unit, kept in one coefficient dict and filtered once.

        a and b must be elements of this algebra, by value as for `+`.
        """
        out = {}
        for n, a, b in terms:
            self._own(a)
            if b is None:
                for i, c in a.coeffs.items():
                    out[i] = out.get(i, 0) + n * c
            else:
                self._own(b)
                _add_product(out, self.products, n, a.coeffs, b.coeffs)
        return self._element(out)

    def _own(self, el: "AlgebraElement"):
        if el.algebra is not self and el.algebra != self:
            raise ValueError("elements of different algebras")

    def _element(self, coeffs: dict) -> "AlgebraElement":
        """The element of coeffs with its zero coefficients dropped; the
        shared zero when none is left."""
        coeffs = {i: c for i, c in coeffs.items() if c}
        return AlgebraElement._trusted(self, coeffs) if coeffs else self._zero

    def basis_of_degree(self, d: int):
        return [i for i, deg in enumerate(self.degrees) if deg == d]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedAlgebra)
            and self.names == other.names
            and self.degrees == other.degrees
            and self.table == other.table
            and self.top_degree == other.top_degree
        )

    def __hash__(self):
        return hash((self.names, self.degrees, self.top_degree))

    def __repr__(self):
        return f"GradedAlgebra(rank {len(self.names)}, top degree {self.top_degree})"


def make_free_truncated(generators, top_degree: int) -> GradedAlgebra:
    """Polynomial algebra on weighted generators, truncated above top_degree.

    generators: sequence of (name, degree) pairs.  The basis consists of all
    monomials of weighted degree <= top_degree.
    """
    gens = list(generators)
    if any(d < 1 for _, d in gens):
        raise ValueError("generator degrees must be positive")
    if gens and top_degree < max(d for _, d in gens):
        raise ValueError("top_degree below a generator degree")

    def monomial_name(exps):
        parts = []
        for (name, _), e in zip(gens, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def weighted(exps):
        return sum(e * d for e, (_, d) in zip(exps, gens))

    monomials = [(0,) * len(gens)]
    frontier = [(0,) * len(gens)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for exps in frontier:
            for i in range(len(gens)):
                cand = tuple(e + int(k == i) for k, e in enumerate(exps))
                if weighted(cand) <= top_degree and cand not in seen:
                    seen.add(cand)
                    monomials.append(cand)
                    nxt.append(cand)
        frontier = nxt

    # graded order, earlier generators first within a degree
    monomials.sort(key=lambda e: (weighted(e), tuple(-x for x in e)))
    index = {e: i for i, e in enumerate(monomials)}
    names = [monomial_name(e) for e in monomials]
    degrees = [weighted(e) for e in monomials]
    table = {}
    for i, ei in enumerate(monomials):
        for j in range(i, len(monomials)):
            ej = monomials[j]
            prod = tuple(a + b for a, b in zip(ei, ej))
            if weighted(prod) <= top_degree:
                table[(i, j)] = {index[prod]: 1}
            else:
                table[(i, j)] = {}
    return GradedAlgebra(names, degrees, table, top_degree)


def point_algebra() -> GradedAlgebra:
    return make_free_truncated([], 0)


def projective_space_algebra(n: int, name: str = "h") -> GradedAlgebra:
    return make_free_truncated([(name, 1)], n)


def _add_product(out: dict, products, n: int, a: dict, b: dict):
    """out += n * a * b for coefficient dicts a and b, through the pair
    products of an algebra; zero coefficients may be left in out."""
    for i, c in a.items():
        row = products[i]
        for j, d in b.items():
            ncd = n * c * d
            for k, e in row[j]:
                out[k] = out.get(k, 0) + ncd * e


class AlgebraElement:
    """Z-linear combination of algebra basis elements.

    Elements are immutable: nothing writes to `coeffs` after construction,
    so an algebra's zero and unit are shared, and arithmetic may return an
    operand itself (a + 0 is a, a * 1 is a, 1 * a is a).
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GradedAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {i: c for i, c in coeffs.items() if c != 0}

    @classmethod
    def _trusted(cls, algebra: GradedAlgebra, coeffs: dict) -> "AlgebraElement":
        """An element on coeffs as given, which has no zero coefficient and
        is not changed afterwards."""
        el = object.__new__(cls)
        el.algebra = algebra
        el.coeffs = coeffs
        return el

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self):
        return sorted({self.algebra.degrees[i] for i in self.coeffs})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def is_homogeneous_of(self, d: int) -> bool:
        return all(self.algebra.degrees[i] == d for i in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, int):
            return AlgebraElement(self.algebra, {0: other})
        if not isinstance(other, AlgebraElement):
            return None
        self.algebra._own(other)
        return other

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other = AlgebraElement._trusted(self.algebra, {0: other})
        elif other.__class__ is not AlgebraElement or other.algebra is not self.algebra:
            other = self._coerce(other)
        if not other.coeffs:
            return self
        if not self.coeffs and other.algebra is self.algebra:
            return other
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            c += coeffs.get(i, 0)
            if c:
                coeffs[i] = c
            else:
                del coeffs[i]
        return AlgebraElement._trusted(self.algebra, coeffs) if coeffs else self.algebra._zero

    __radd__ = __add__

    def __neg__(self):
        if not self.coeffs:
            return self
        return AlgebraElement._trusted(self.algebra, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        algebra = self.algebra
        if isinstance(other, int):
            if other == 1:
                return self
            if not other or not self.coeffs:
                return algebra._zero
            return AlgebraElement._trusted(algebra, {i: other * c for i, c in self.coeffs.items()})
        if other.__class__ is not AlgebraElement or other.algebra is not algebra:
            other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return algebra._zero
        if self is algebra._one and other.algebra is algebra:
            return other
        if other is algebra._one:
            return self
        out = {}
        _add_product(out, algebra.products, 1, self.coeffs, other.coeffs)
        return algebra._element(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, self.algebra.one())

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            other = AlgebraElement(self.algebra, {0: other})
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def render(self) -> str:
        names = self.algebra.names
        return signed_sum(
            (self.coeffs[i], "" if names[i] == "1" else names[i]) for i in sorted(self.coeffs)
        )

    def __repr__(self):
        return f"AlgebraElement({self.render()})"


class MixingMap:
    """Linear map from lattice characters into degree-one base classes.

    `delta_extend` keeps the image of each monomial it meets, exponents ->
    element, built on first use.  A monomial above the algebra's top degree
    maps to zero at once and is not kept: every image has degree one or is
    zero, and the products of a graded algebra keep degrees.  So the memo
    holds at most the monomials up to the top degree.
    """

    def __init__(self, algebra: GradedAlgebra, images):
        self.algebra = algebra
        self.images = tuple(images)
        for el in self.images:
            if el.algebra != algebra:
                raise ValueError("image in wrong algebra")
            if not el.is_zero() and not el.is_homogeneous_of(1):
                raise ValueError("images must be homogeneous of degree one")
        self._monomial_images = {}

    @property
    def lattice_rank(self) -> int:
        return len(self.images)

    def delta(self, m) -> AlgebraElement:
        """Image of the character m: sum of m_i times the i-th image."""
        out = self.algebra.zero()
        for c, el in zip(m, self.images, strict=True):
            if c != 0:
                out = out + el * c
        return out

    def delta_extend(self, f: Polynomial) -> AlgebraElement:
        """Multiplicative extension to polynomials in the characters: the
        sum of c times the product of the images over the terms of f."""
        if f.num_vars != self.lattice_rank:
            raise ValueError("polynomial has wrong number of variables")
        memo, top = self._monomial_images, self.algebra.top_degree
        terms = []
        for exps, c in f.terms.items():
            term = memo.get(exps)
            if term is None:
                if sum(exps) > top:
                    continue
                term = self.algebra.one()
                for el, k in zip(self.images, exps):
                    for _ in range(k):
                        term = term * el
                memo[exps] = term
            terms.append((c, term, None))
        return self.algebra.combine(terms)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, MixingMap)
            and self.algebra == other.algebra
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.algebra, self.images))
