"""Problem files: a JSON tree describing a bundle and optional payloads.

The file declares the fibre fan (rays plus cones by ray index, zero cone
implicit), the base ring, the twisting matrix, and optionally weights, a
piecewise polynomial, a sublattice, and a displacement vector.  Class and
polynomial entries are strings over the declared generator names, parsed by
a small grammar (integers, + - * ^, parentheses).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    AlgebraElement,
    GradedAlgebra,
    MixingMap,
    make_free_truncated,
    point_algebra,
    projective_space_algebra,
)
from .errors import InvariantViolation, TorbunError
from .fans import Cone, Fan, fan_from_ray_lists
from .lattice import Sublattice
from .polynomials import Polynomial, power
from .presentations import poincare_dual_mw
from .weights import MinkowskiWeight


class ProblemError(TorbunError):
    """A problem file failed validation."""


# integer literals, exponents and the coefficients of every intermediate
# result of an expression have at most this many digits
MAX_DIGITS = 1000

# a base algebra has at most this many basis elements: building one checks
# associativity on every triple of them, a cost cubic in the basis size
MAX_BASIS = 64

# a cone lists at most this many ray indices: its facet normals take one
# kernel for each choice of dim - 1 of its rays
MAX_CONE_RAYS = 32

# a file lists at most this many cones: validating a fan decides every pair
# of its maximal cones, a cost quadratic in their number
MAX_CONES = 256


# ---------------------------------------------------------------------------
# expression grammar: integers, names, + - * ^ and parentheses

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*|\+|-|\^|\(|\))")

# basis and generator names of a base algebra are names of this grammar, so
# that every printed class reads back as itself
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ProblemError(f"bad character in expression {text!r} at offset {pos}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _too_long(text: str) -> ProblemError:
    return ProblemError(f"a number in {text[:40]!r} has more than {MAX_DIGITS} digits")


def _parse_int(tok: str, text: str) -> int:
    if len(tok) > MAX_DIGITS:
        raise _too_long(text)
    return int(tok)


def parse_expression(text: str, atom, constant, coefficients, max_degree=None):
    """Evaluate an expression string in a commutative ring.

    `atom(name)` resolves generator names, `constant(i)` embeds integers and
    `coefficients(value)` lists a ring value's integer coefficients.  Every
    sum, product and step of a power is refused once a coefficient reaches
    10**MAX_DIGITS in absolute value, or, when `max_degree` is given, once
    the value's `degree()` exceeds it.  So a huge power of a constant stops
    after a few squarings, and a product or power of polynomials at the
    first step above max_degree, instead of exhausting memory.
    """
    if not isinstance(text, str):
        raise ProblemError(f"an expression must be a string, got {text!r:.40}")
    tokens = _tokenize(text)
    pos = 0
    limit = 10**MAX_DIGITS

    def checked(value):
        if any(abs(c) >= limit for c in coefficients(value)):
            raise _too_long(text)
        if max_degree is not None and (value.degree() or 0) > max_degree:
            raise ProblemError(
                f"a product or power in {text[:40]!r} has degree {value.degree()}, above the piece degree "
                f"{max_degree}; every product and power in a piece must stay within that degree"
            )
        return value

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ProblemError(f"unexpected end or token in expression {text!r}")
        pos += 1
        return tok

    def parse_sum():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        value = parse_term() * sign
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            value = checked(value + parse_term() * sign)
        return value

    def parse_term():
        value = parse_power()
        while peek() == "*":
            take("*")
            value = checked(value * parse_power())
        return value

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take("^")
            exp = take()
            if not exp.isdigit():
                raise ProblemError(f"exponent must be a nonnegative integer in {text!r}")
            k = _parse_int(exp, text)
            return power(base, k, constant(1), checked)
        return base

    def parse_atom():
        tok = peek()
        if tok == "(":
            take("(")
            value = parse_sum()
            take(")")
            return value
        if tok == "-":
            take("-")
            return -parse_atom()
        tok = take()
        if tok.isdigit():
            return constant(_parse_int(tok, text))
        return atom(tok)

    try:
        value = parse_sum()
    except RecursionError:
        raise ProblemError(f"expression {text[:40]!r} is nested too deeply") from None
    if pos != len(tokens):
        raise ProblemError(f"trailing tokens in expression {text!r}")
    return value


def parse_class_expression(text: str, algebra: GradedAlgebra):
    def atom(name):
        if name not in algebra.index:
            raise ProblemError(f"unknown class generator {name!r}")
        return algebra.basis_element(name)

    return parse_expression(text, atom, lambda c: algebra.one() * c, lambda el: el.coeffs.values())


def parse_polynomial_expression(text: str, num_vars: int, max_degree: int) -> Polynomial:
    """Parse a polynomial in x1..x<num_vars>.  A product or power whose
    degree exceeds max_degree, the degree of the piece it belongs to, is
    refused as soon as it is formed."""

    def atom(name):
        if not re.fullmatch(r"x(\d+)", name):
            raise ProblemError(f"polynomial variables are x1..x{num_vars}, got {name!r}")
        i = int(name[1:])
        if not 1 <= i <= num_vars:
            raise ProblemError(f"variable {name!r} out of range 1..{num_vars}")
        return Polynomial.variable(num_vars, i - 1)

    return parse_expression(
        text, atom, lambda c: Polynomial.constant(num_vars, c), lambda p: p.terms.values(), max_degree
    )


def parse_divisor_monomial(text: str, num_rays: int, max_degree: int):
    """Parse a product of D<i> factors (1-based) with optional ^powers and a
    leading integer 1; returns the list of 0-based ray indices.  A total degree
    above max_degree, the bundle's dimension (so the class is zero), is refused."""
    tokens = _tokenize(text)
    if tokens == ["1"]:
        return []
    factors = []
    expect_factor = True
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if expect_factor:
            m = re.fullmatch(r"D(\d+)", tok)
            if not m:
                raise ProblemError(f"divisor monomials look like D1*D2^2, got {text!r}")
            idx = _parse_int(m.group(1), text) - 1
            if not 0 <= idx < num_rays:
                raise ProblemError(f"ray index out of range in {text!r}")
            power = 1
            if pos + 1 < len(tokens) and tokens[pos + 1] == "^":
                if pos + 2 == len(tokens) or not tokens[pos + 2].isdigit():
                    raise ProblemError(f"divisor monomials look like D1*D2^2, got {text!r}")
                power = _parse_int(tokens[pos + 2], text)
                pos += 2
            factors.append((idx, power))
            expect_factor = False
        else:
            if tok != "*":
                raise ProblemError(f"expected '*' in divisor monomial {text!r}")
            expect_factor = True
        pos += 1
    if expect_factor:
        raise ProblemError(f"dangling '*' in divisor monomial {text!r}")
    degree = sum(power for _, power in factors)
    if degree > max_degree:
        raise ProblemError(f"divisor monomial {text!r} has degree {degree} > bundle dimension {max_degree}")
    return [idx for idx, power in factors for _ in range(power)]


# ---------------------------------------------------------------------------
# cone keys


def cone_key_string(fan: Fan, cone: Cone) -> str:
    return json.dumps(list(fan.cone_key(cone)), separators=(",", ":"))


def cone_from_key_string(fan: Fan, key: str) -> Cone:
    try:
        indices = json.loads(key)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"bad cone key {key!r}: {exc}") from exc
    except RecursionError:
        raise ProblemError(f"bad cone key {key[:40]!r}: nested too deeply") from None
    if not isinstance(indices, list) or not all(type(i) is int for i in indices):
        raise ProblemError(f"cone key must be a list of ray indices, got {key!r}")
    return fan.cone_by_ray_indices(indices)


# ---------------------------------------------------------------------------
# the problem file


@dataclass
class WeightSpec:
    codim: int
    values: Optional[dict] = None  # cone key -> expression string
    dual_to: Optional[str] = None


@dataclass
class Problem:
    lattice_rank: int
    fan: Fan
    algebra: GradedAlgebra
    mixing: MixingMap
    weight_specs: list = field(default_factory=list)
    piecewise_raw: Optional[dict] = None
    sublattice: Optional[Sublattice] = None
    displacement: Optional[tuple] = None
    raw: dict = field(default_factory=dict)

    def weight(self, i: int) -> MinkowskiWeight:
        if not 0 <= i < len(self.weight_specs):
            raise ProblemError(f"file has {len(self.weight_specs)} weights, asked for #{i + 1}")
        spec = self.weight_specs[i]
        explicit = None
        if spec.values is not None:
            values = {}
            for key, expr in spec.values.items():
                cone = cone_from_key_string(self.fan, key)
                values[cone] = parse_class_expression(expr, self.algebra)
            try:
                explicit = MinkowskiWeight(self.fan, self.algebra, self.mixing, spec.codim, values)
            except ValueError as exc:
                raise ProblemError(f"weight #{i + 1}: {exc}") from exc
        dual = None
        if spec.dual_to is not None:
            top = self.lattice_rank + self.algebra.top_degree
            rays = parse_divisor_monomial(spec.dual_to, len(self.fan.rays), top)
            dual = poincare_dual_mw(self.fan, self.mixing, rays)
            if dual.codim != spec.codim:
                raise ProblemError(
                    f"weight #{i + 1}: dual_to {spec.dual_to!r} has codimension {dual.codim}, "
                    f"file says {spec.codim}"
                )
        if explicit is not None and dual is not None and explicit != dual:
            raise ProblemError(
                f"weight #{i + 1}: stated values disagree with the class {spec.dual_to!r}"
            )
        result = explicit if explicit is not None else dual
        if result is None:
            raise ProblemError(f"weight #{i + 1} needs 'values' or 'dual_to'")
        return result

    def piecewise(self):
        from .equivariant import PiecewisePolynomial

        if self.piecewise_raw is None:
            raise ProblemError("file has no piecewise polynomial section")
        degree = self.piecewise_raw.get("degree")
        pieces_raw = self.piecewise_raw.get("pieces")
        if type(degree) is not int or not isinstance(pieces_raw, dict):
            raise ProblemError("piecewise section needs integer 'degree' and object 'pieces'")
        pieces = {}
        for key, expr in pieces_raw.items():
            cone = cone_from_key_string(self.fan, key)
            pieces[cone] = parse_polynomial_expression(expr, self.lattice_rank, degree)
        try:
            return PiecewisePolynomial(self.fan, degree, pieces)
        except ValueError as exc:
            raise ProblemError(str(exc)) from exc

    def canonical_dict(self) -> dict:
        out = {
            "lattice_rank": self.lattice_rank,
            "rays": [list(r) for r in self.fan.rays],
            "cones": [list(self.fan.cone_key(c)) for c in self.fan.maximal_cones],
            "base_algebra": self.raw["base_algebra"],
            "mixing": self.raw["mixing"],
        }
        for key in ("weights", "piecewise", "sublattice", "displacement"):
            if key in self.raw:
                out[key] = self.raw[key]
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), indent=2, sort_keys=True) + "\n"


def _count_monomials(degrees, top: int, limit: int) -> int:
    """The number of monomials of weighted degree <= top in generators of
    the given degrees, each in 1..top, or some number above limit if that
    is more.  Every branch ends in at least one monomial, so the work is
    O(limit * len(degrees)), and the recursion is at most limit deep."""
    if len(degrees) >= limit:
        return len(degrees) + 1  # the unit and the generators

    def count(i, left):
        if i == len(degrees):
            return 1
        total = 0
        for e in range(left // degrees[i] + 1):
            total += count(i + 1, left - e * degrees[i])
            if total > limit:
                break
        return total

    return count(0, top)


def _check_basis_size(size: int):
    """Refuse a base algebra of more than MAX_BASIS basis elements before it is built."""
    if size > MAX_BASIS:
        raise ProblemError(f"base algebra has more than {MAX_BASIS} basis elements, the limit")


def _check_name(name: str, unit: bool = False):
    """Refuse a basis or generator name that an expression would not read
    as that one name; an explicit algebra's unit may also be called "1"."""
    if not (_NAME.fullmatch(name) or (unit and name == "1")):
        raise ProblemError(
            f"base algebra name {name!r} must be letters, digits and '_', not starting with a digit"
        )


def _build_algebra(spec) -> GradedAlgebra:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ProblemError("base_algebra must be an object with a 'type'")
    kind = spec["type"]
    if kind == "point":
        return point_algebra()
    if kind == "projective":
        dim = spec.get("dim")
        if type(dim) is not int or dim < 0:
            raise ProblemError("projective base needs an integer 'dim'")
        generator = spec.get("generator", "h")
        if not isinstance(generator, str):
            raise ProblemError("projective base 'generator' must be a string")
        _check_name(generator)
        _check_basis_size(dim + 1)
        return projective_space_algebra(dim, generator)
    if kind == "free_truncated":
        gens = spec.get("generators")
        top = spec.get("top_degree")
        if not isinstance(gens, list) or type(top) is not int:
            raise ProblemError("free_truncated needs 'generators' and integer 'top_degree'")
        pairs = []
        for item in gens:
            if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str) and type(item[1]) is int):
                raise ProblemError("generators are [name, degree] pairs, the name a string")
            _check_name(item[0])
            pairs.append((item[0], item[1]))
        # a generator above top_degree adds no monomial; make_free_truncated
        # refuses one of degree below 1
        _check_basis_size(_count_monomials([d for _, d in pairs if 1 <= d <= top], top, MAX_BASIS))
        return make_free_truncated(pairs, top)
    if kind == "explicit":
        names = spec.get("names")
        degrees = spec.get("degrees")
        top = spec.get("top_degree")
        products = spec.get("products", {})
        if not (isinstance(names, list) and isinstance(degrees, list) and type(top) is int):
            raise ProblemError("explicit algebra needs 'names', 'degrees', 'top_degree'")
        if not names or len(degrees) != len(names):
            raise ProblemError("explicit algebra needs as many 'degrees' as 'names', and at least one")
        if not all(isinstance(name, str) for name in names):
            raise ProblemError("explicit algebra 'names' must be strings")
        for i, name in enumerate(names):
            _check_name(name, unit=i == 0)
        if not all(type(d) is int for d in degrees):
            raise ProblemError("explicit algebra 'degrees' must be integers")
        if not (isinstance(products, dict) and all(isinstance(expr, str) for expr in products.values())):
            raise ProblemError("explicit algebra 'products' must be an object of strings")
        _check_basis_size(len(names))
        index = {n: i for i, n in enumerate(names)}
        # product values are linear combinations of basis names; evaluating a
        # '*' or '^' against the unfinished table would be silently wrong
        skeleton = GradedAlgebra(names, degrees, {}, top, check=False)
        table = {}
        for key, expr in products.items():
            parts = key.split("*")
            if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
                raise ProblemError(f"product key must be 'name*name', got {key!r}")
            if "*" in expr or "^" in expr:
                raise ProblemError(
                    f"product value {expr!r} must be a linear combination of basis names"
                )
            el = parse_class_expression(expr, skeleton)
            i, j = index[parts[0]], index[parts[1]]
            table[(i, j) if i <= j else (j, i)] = dict(el.coeffs)
        try:
            return GradedAlgebra(names, degrees, table, top, check=True)
        except ValueError as exc:
            raise ProblemError(f"explicit algebra rejected: {exc}") from exc
    raise ProblemError(f"unknown base_algebra type {kind!r}")


def parse_problem(text: str, path: str = "<memory>") -> Problem:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ProblemError(f"{path}: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise ProblemError(f"{path}: top level must be an object")

    def need(key, kind, what):
        # exact types: JSON true and false are not integers
        if key not in raw:
            raise ProblemError(f"{path}: missing required key {key!r}")
        val = raw[key]
        if type(val) is not kind:
            raise ProblemError(f"{path}: {key!r} must be {what}")
        return val

    rank = need("lattice_rank", int, "an integer")
    if rank < 0:
        raise ProblemError(f"{path}: 'lattice_rank' must be nonnegative, got {rank}")
    rays = need("rays", list, "a list of integer vectors")
    cones = need("cones", list, "a list of ray-index lists")
    if len(cones) > MAX_CONES:
        raise ProblemError(f"{path}: the file lists {len(cones)} cones, more than {MAX_CONES}, the limit")
    for r in rays:
        if not (isinstance(r, list) and len(r) == rank and all(type(c) is int for c in r)):
            raise ProblemError(f"{path}: ray {r!r} must be a length-{rank} integer vector")
    for c in cones:
        if not (isinstance(c, list) and all(type(i) is int and 0 <= i < len(rays) for i in c)):
            raise ProblemError(f"{path}: cone {c!r} must index into the ray list")
        if len(c) > MAX_CONE_RAYS:
            raise ProblemError(f"{path}: a cone lists {len(c)} rays, more than {MAX_CONE_RAYS}, the limit")
    try:
        fan = fan_from_ray_lists(rank, [tuple(r) for r in rays], [tuple(c) for c in cones])
    except InvariantViolation:
        raise
    except (TorbunError, ValueError) as exc:
        raise ProblemError(f"{path}: invalid fan: {exc}") from exc

    algebra = _build_algebra(need("base_algebra", dict, "an object"))

    mixing_rows = need("mixing", list, "a matrix")
    degree_one = algebra.basis_of_degree(1)
    if len(mixing_rows) != rank:
        raise ProblemError(f"{path}: mixing matrix needs {rank} rows (one per lattice coordinate)")
    images = []
    for row in mixing_rows:
        if not (isinstance(row, list) and len(row) == len(degree_one) and all(type(c) is int for c in row)):
            raise ProblemError(
                f"{path}: each mixing row must have {len(degree_one)} integer entries "
                "(the degree-one basis)"
            )
        images.append(AlgebraElement(algebra, dict(zip(degree_one, row))))
    mixing = MixingMap(algebra, images)

    weight_specs = []
    if "weights" in raw:
        if not isinstance(raw["weights"], list):
            raise ProblemError(f"{path}: 'weights' must be a list")
        for i, w in enumerate(raw["weights"]):
            if not isinstance(w, dict) or "codim" not in w or type(w["codim"]) is not int:
                raise ProblemError(f"{path}: weight #{i + 1} needs an integer 'codim'")
            values = w.get("values")
            if values is not None and not isinstance(values, dict):
                raise ProblemError(f"{path}: weight #{i + 1} 'values' must be an object")
            dual_to = w.get("dual_to")
            if dual_to is not None and not isinstance(dual_to, str):
                raise ProblemError(f"{path}: weight #{i + 1} 'dual_to' must be a string")
            weight_specs.append(WeightSpec(w["codim"], values, dual_to))

    sublattice = None
    if "sublattice" in raw:
        basis = raw["sublattice"]
        if not isinstance(basis, list):
            raise ProblemError(f"{path}: 'sublattice' must be a list of vectors")
        for v in basis:
            if not (isinstance(v, list) and len(v) == rank and all(type(c) is int for c in v)):
                raise ProblemError(f"{path}: sublattice vector {v!r} is malformed")
        try:
            sublattice = Sublattice(rank, tuple(tuple(v) for v in basis))
        except ValueError as exc:
            raise ProblemError(f"{path}: bad sublattice: {exc}") from exc

    displacement = None
    if "displacement" in raw:
        v = raw["displacement"]
        if not (isinstance(v, list) and len(v) == rank and all(type(c) is int for c in v)):
            raise ProblemError(f"{path}: 'displacement' must be a length-{rank} integer vector")
        displacement = tuple(v)

    piecewise_raw = raw.get("piecewise")
    if piecewise_raw is not None and not isinstance(piecewise_raw, dict):
        raise ProblemError(f"{path}: 'piecewise' must be an object")

    return Problem(
        lattice_rank=rank,
        fan=fan,
        algebra=algebra,
        mixing=mixing,
        weight_specs=weight_specs,
        piecewise_raw=piecewise_raw,
        sublattice=sublattice,
        displacement=displacement,
        raw=raw,
    )
