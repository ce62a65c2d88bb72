"""Command-line front end.

    torbun <check-fan|check-balancing|mw-product|pp-to-mw|equiv-mult|
            residue|presentation|subbundle> <file> [flags]

Every command reads one problem file, prints a deterministic result
document (table or JSON), and exits 0 on success, 2 on validation
failure, 3 on a mathematical assertion failure or an internal error, 4
when no generic displacement vector could be certified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

from .equivariant import equivariant_multiplicity, pp_to_mw, residue_sum
from .errors import (
    BalancingError,
    InvariantViolation,
    NonGenericVector,
    ResidueNotPolynomial,
    TorbunError,
)
from .fans import (
    Cone,
    Fan,
    find_generic_vector,
    is_complete,
    is_generic_diagonal,
    multiplicity,
)
from .polynomials import Polynomial, signed_sum
from .presentations import equivariant_presentation, homology_presentation, poincare_dual_mw
from .problem import (
    Problem,
    ProblemError,
    cone_from_key_string,
    cone_key_string,
    parse_divisor_monomial,
    parse_problem,
)
from .weights import check_balancing, mw_product, subbundle_class

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MATH = 3
EXIT_GENERICITY = 4


# ---------------------------------------------------------------------------
# rendering


def stratum_name(fan: Fan, cone: Cone) -> str:
    if cone.dim == 0:
        return "Y()"
    indices = fan.cone_key(cone)
    if cone.dim == 1:
        return f"D{indices[0] + 1}"
    return "Y(" + ",".join(str(i + 1) for i in indices) + ")"


def _wrap(text: str) -> str:
    return f"({text})" if (" " in text or text.startswith("-")) else text


def render_relation(fan: Fan, relation) -> str:
    lhs = signed_sum(
        (relation.lhs[cone], stratum_name(fan, cone))
        for cone in sorted(relation.lhs, key=fan.cone_sort_key)
    )
    pieces = []
    if not relation.rhs.is_zero():
        pieces.append(f"p*{_wrap(relation.rhs.render())}")
    if relation.equivariant_part is not None:
        chi = Polynomial.linear_form(relation.equivariant_part)
        if not chi.is_zero():
            pieces.append(chi.render())
    rhs = " + ".join(pieces) if pieces else "0"
    if relation.tau.dim > 0:
        factor = stratum_name(fan, relation.tau)
        rhs = f"{_wrap(rhs)} * {factor}" if rhs != "0" else "0"
    return f"{lhs} = {rhs}"


def weight_table(fan: Fan, weight) -> dict:
    out = {}
    for cone in fan.cones:
        out[cone_key_string(fan, cone)] = weight.value(cone).render()
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table_key(key):
    """Sort cone keys by (dimension, ray indices), other keys after."""
    if isinstance(key, str) and key.startswith("[") and key.endswith("]"):
        try:
            indices = json.loads(key)
            if isinstance(indices, list) and all(isinstance(i, int) for i in indices):
                return (0, len(indices), tuple(indices), key)
        except json.JSONDecodeError:
            pass
    return (1, 0, (), str(key))


def render_table(doc: dict) -> str:
    out = []

    def render_scalar(v):
        if isinstance(v, (list, dict)):
            return json.dumps(v, separators=(",", ":"), sort_keys=True)
        return str(v)

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value, key=_table_key):
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and all(isinstance(x, dict) for x in value) and value:
            for i, item in enumerate(value):
                emit(f"{prefix}{i}.", item)
        else:
            out.append(f"{prefix.rstrip('.')}: {render_scalar(value)}")

    emit("", doc)
    return "\n".join(out) + "\n"


def print_document(doc: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(render_table(doc))


# ---------------------------------------------------------------------------
# commands


def _base_document(command: str, path: str, data: bytes, flags: dict) -> dict:
    return {
        "command": command,
        "input": {"path": path, "sha256": _digest(data)},
        "flags": {k: v for k, v in sorted(flags.items()) if v is not None},
    }


def _parse_v(problem: Problem, text: str) -> tuple:
    try:
        v = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ProblemError(f"--v must be a comma-separated integer vector, got {text!r}") from None
    if len(v) != problem.lattice_rank:
        raise ProblemError(f"--v must have {problem.lattice_rank} entries, got {text!r}")
    return v


def _pick_displacement(problem: Problem, args, rng) -> tuple:
    if args.v:
        v, source = _parse_v(problem, args.v), "supplied vector"
    elif problem.displacement is not None:
        v, source = problem.displacement, "file displacement"
    else:
        return find_generic_vector(problem.fan, rng)
    if not is_generic_diagonal(problem.fan, v):
        raise NonGenericVector(f"{source} {list(v)} failed genericity certification")
    return v, 0


def cmd_check_fan(problem: Problem, args, doc: dict, rng) -> int:
    fan = problem.fan
    doc["outputs"] = {
        "valid": True,
        "complete": is_complete(fan),
        "smooth": fan.is_smooth(),
        "simplicial": fan.is_simplicial(),
        "cones": len(fan.cones),
        "multiplicities": {
            cone_key_string(fan, c): multiplicity(c) for c in fan.cones if c.is_simplicial
        },
    }
    return EXIT_OK


def cmd_check_balancing(problem: Problem, args, doc: dict, rng) -> int:
    if not problem.weight_specs:
        raise ProblemError("check-balancing needs a 'weights' section")
    results = {}
    failed = False
    for i in range(len(problem.weight_specs)):
        W = problem.weight(i)
        report = check_balancing(W)
        entry = {"balanced": report.ok}
        if not report.ok:
            failed = True
            entry["violations"] = [
                {
                    "tau": cone_key_string(problem.fan, tau),
                    "m": list(m),
                    "lhs": lhs.render(),
                    "rhs": rhs.render(),
                }
                for tau, m, lhs, rhs in report.violations
            ]
        results[f"weight_{i + 1}"] = entry
    doc["outputs"] = results
    return EXIT_MATH if failed else EXIT_OK


def cmd_mw_product(problem: Problem, args, doc: dict, rng) -> int:
    if len(problem.weight_specs) < 2:
        raise ProblemError("mw-product needs two weights in the file")
    if args.cross_check and not problem.lattice_rank:
        raise NonGenericVector("--cross-check needs a second generic vector, and rank 0 has only ()")
    W1 = problem.weight(0)
    W2 = problem.weight(1)
    v, attempts = _pick_displacement(problem, args, rng)
    product = mw_product(W1, W2, v)
    doc["diagnostics"] = {"v": list(v), "generic": True, "search_attempts": attempts}
    doc["outputs"] = {"codim": product.codim, "values": weight_table(problem.fan, product)}
    if args.cross_check:
        v2, attempts2 = find_generic_vector(problem.fan, rng)
        while v2 == v:
            v2, more = find_generic_vector(problem.fan, rng)
            attempts2 += more
        second = mw_product(W1, W2, v2)
        doc["diagnostics"]["cross_check_v"] = list(v2)
        if second != product:
            doc["diagnostics"]["cross_check"] = "mismatch"
            return EXIT_MATH
        doc["diagnostics"]["cross_check"] = "match"
    if args.oracle:
        s1 = problem.weight_specs[0].dual_to
        s2 = problem.weight_specs[1].dual_to
        if s1 is None or s2 is None:
            raise ProblemError("--oracle needs 'dual_to' on both weights")
        n, top = len(problem.fan.rays), problem.lattice_rank + problem.algebra.top_degree
        rays = parse_divisor_monomial(s1, n, top) + parse_divisor_monomial(s2, n, top)
        expected = poincare_dual_mw(problem.fan, problem.mixing, rays)
        if expected != product:
            doc["diagnostics"]["oracle"] = "mismatch"
            return EXIT_MATH
        doc["diagnostics"]["oracle"] = "match"
    return EXIT_OK


def cmd_pp_to_mw(problem: Problem, args, doc: dict, rng) -> int:
    W = pp_to_mw(problem.piecewise(), problem.mixing)
    doc["outputs"] = {"codim": W.codim, "values": weight_table(problem.fan, W)}
    return EXIT_OK


def cmd_equiv_mult(problem: Problem, args, doc: dict, rng) -> int:
    sigma = cone_from_key_string(problem.fan, args.sigma)
    tau = cone_from_key_string(problem.fan, args.tau)
    e = equivariant_multiplicity(problem.fan, sigma, tau)
    doc["outputs"] = {
        "sigma": args.sigma,
        "tau": args.tau,
        "value": e.render(),
        "degree": e.degree(),
    }
    return EXIT_OK


def cmd_residue(problem: Problem, args, doc: dict, rng) -> int:
    f = problem.piecewise()
    fan = problem.fan
    if args.tau is not None:
        taus = [cone_from_key_string(fan, args.tau)]
    else:
        taus = list(fan.cones)
    doc["outputs"] = {
        cone_key_string(fan, tau): residue_sum(f, tau).render() for tau in taus
    }
    return EXIT_OK


def cmd_presentation(problem: Problem, args, doc: dict, rng) -> int:
    build = equivariant_presentation if args.equivariant else homology_presentation
    pres = build(problem.fan, problem.mixing)
    fan = problem.fan
    doc["outputs"] = {
        "generators": [
            {"cone": cone_key_string(fan, c), "name": stratum_name(fan, c), "degree": d}
            for c, d in pres.generators
        ],
        "relations": [
            {
                "tau": cone_key_string(fan, r.tau),
                "m": list(r.m),
                "relation": render_relation(fan, r),
            }
            for r in pres.relations
        ],
    }
    return EXIT_OK


def cmd_subbundle(problem: Problem, args, doc: dict, rng) -> int:
    if problem.sublattice is None:
        raise ProblemError("subbundle needs a 'sublattice' section")
    N = problem.sublattice
    found = {}

    def has_class(fan, u):
        try:
            found[u] = subbundle_class(fan, N, u)
        except NonGenericVector:
            return False
        return True

    if args.v:
        v, attempts = _parse_v(problem, args.v), 0
    elif problem.displacement is not None:
        v, attempts = problem.displacement, 0
    else:
        v, attempts = find_generic_vector(problem.fan, rng, has_class)
    result = found[v] if v in found else subbundle_class(problem.fan, N, v)
    doc["diagnostics"] = {"v": list(v), "search_attempts": attempts}
    doc["outputs"] = {
        cone_key_string(problem.fan, cone): coeff for cone, coeff in sorted(
            result.terms.items(), key=lambda kv: problem.fan.cone_sort_key(kv[0])
        )
    }
    return EXIT_OK


COMMANDS = {
    "check-fan": cmd_check_fan,
    "check-balancing": cmd_check_balancing,
    "mw-product": cmd_mw_product,
    "pp-to-mw": cmd_pp_to_mw,
    "equiv-mult": cmd_equiv_mult,
    "residue": cmd_residue,
    "presentation": cmd_presentation,
    "subbundle": cmd_subbundle,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torbun", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--format", choices=["json", "table"], default="table")
        p.add_argument("--seed", type=int, default=0, help="seed for generic-vector search")

    for name in ("check-fan", "check-balancing", "pp-to-mw"):
        common(sub.add_parser(name))
    p = sub.add_parser("mw-product")
    common(p)
    p.add_argument("--v", help="displacement vector, e.g. '2,1'")
    p.add_argument("--cross-check", action="store_true", help="recompute with a second generic vector")
    p.add_argument("--oracle", action="store_true", help="compare against the intersection ring oracle")
    p = sub.add_parser("equiv-mult")
    common(p)
    p.add_argument("--sigma", required=True, help="maximal cone key, e.g. '[0,1]'")
    p.add_argument("--tau", required=True, help="face cone key, e.g. '[]'")
    p = sub.add_parser("residue")
    common(p)
    p.add_argument("--tau", help="cone key; omit for all cones")
    p = sub.add_parser("presentation")
    common(p)
    p.add_argument("--equivariant", action="store_true")
    p = sub.add_parser("subbundle")
    common(p)
    p.add_argument("--v", help="displacement vector, e.g. '1,0'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed
    if os.environ.get("TORBUN_SEED"):
        try:
            seed = int(os.environ["TORBUN_SEED"])
        except ValueError:
            print("TORBUN_SEED must be an integer", file=sys.stderr)
            return EXIT_VALIDATION
    rng = random.Random(seed)
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    doc = _base_document(args.command, args.file, data, vars(args))
    doc["flags"].pop("file", None)
    doc["flags"].pop("command", None)
    doc["flags"]["seed"] = seed
    try:
        problem = parse_problem(data.decode("utf-8"), path=args.file)
        code = COMMANDS[args.command](problem, args, doc, rng)
    except NonGenericVector as exc:
        doc["error"] = {"kind": "genericity", "message": str(exc)}
        print_document(doc, args.format)
        return EXIT_GENERICITY
    except (BalancingError, ResidueNotPolynomial, InvariantViolation) as exc:
        doc["error"] = {"kind": "assertion", "message": str(exc)}
        print_document(doc, args.format)
        return EXIT_MATH
    except (ProblemError, TorbunError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a bug in torbun: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_MATH
    print_document(doc, args.format)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
