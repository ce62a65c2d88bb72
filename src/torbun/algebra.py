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
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {0: 1})

    def basis_element(self, name: str) -> "AlgebraElement":
        return AlgebraElement(self, {self.index[name]: 1})

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

    monomials = [(0,) * len(gens)]
    frontier = [(0,) * len(gens)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for exps in frontier:
            for i in range(len(gens)):
                cand = tuple(e + int(k == i) for k, e in enumerate(exps))
                deg = sum(e * d for e, (_, d) in zip(cand, gens))
                if deg <= top_degree and cand not in seen:
                    seen.add(cand)
                    monomials.append(cand)
                    nxt.append(cand)
        frontier = nxt
    def weighted(exps):
        return sum(e * d for e, (_, d) in zip(exps, gens))

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


class AlgebraElement:
    """Z-linear combination of algebra basis elements."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GradedAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {i: c for i, c in coeffs.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self):
        return sorted({self.algebra.degrees[i] for i in self.coeffs})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def is_homogeneous_of(self, d: int) -> bool:
        return all(self.algebra.degrees[i] == d for i in self.coeffs)

    def homogeneous_part(self, d: int) -> "AlgebraElement":
        return AlgebraElement(
            self.algebra, {i: c for i, c in self.coeffs.items() if self.algebra.degrees[i] == d}
        )

    def _coerce(self, other):
        if isinstance(other, int):
            return AlgebraElement(self.algebra, {0: other})
        if not isinstance(other, AlgebraElement):
            return None
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ValueError("elements of different algebras")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            coeffs[i] = coeffs.get(i, 0) + c
        return AlgebraElement(self.algebra, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.algebra, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraElement(self.algebra, {i: other * c for i, c in self.coeffs.items()})
        other = self._coerce(other)
        out = {}
        for i, c in self.coeffs.items():
            for j, d in other.coeffs.items():
                for k, e in self.algebra.mul_basis(i, j).items():
                    out[k] = out.get(k, 0) + c * d * e
        return AlgebraElement(self.algebra, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, self.algebra.one())

    def __eq__(self, other):
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
    """Linear map from lattice characters into degree-one base classes."""

    def __init__(self, algebra: GradedAlgebra, images):
        self.algebra = algebra
        self.images = tuple(images)
        for el in self.images:
            if el.algebra != algebra:
                raise ValueError("image in wrong algebra")
            if not el.is_zero() and not el.is_homogeneous_of(1):
                raise ValueError("images must be homogeneous of degree one")

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
        """Multiplicative extension to polynomials in the characters."""
        if f.num_vars != self.lattice_rank:
            raise ValueError("polynomial has wrong number of variables")
        out = self.algebra.zero()
        for exps, c in f.terms.items():
            term = self.algebra.one() * c
            for i, k in enumerate(exps):
                for _ in range(k):
                    term = term * self.images[i]
            out = out + term
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MixingMap)
            and self.algebra == other.algebra
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.algebra, self.images))
