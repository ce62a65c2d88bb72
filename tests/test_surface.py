"""The library's surface: what `torbun` exports, and no unused helper."""

import ast
import types
from pathlib import Path

import torbun as tb

SRC = Path(tb.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# the public API; a change to it edits this pin
EXPORTS = {
    "AlgebraElement", "BalancingError", "BalancingReport", "Cone", "ConeNotInFan", "Fan", "FanNotComplete",
    "GradedAlgebra", "INFINITE", "InvalidFan", "InvariantViolation", "LinearFraction", "MinkowskiWeight",
    "MixingMap", "NonGenericVector", "NotCodimOne", "NotSaturated", "NotSimplicial", "NotStronglyConvex",
    "OracleRequiresSmoothComplete", "PiecewisePolynomial", "Polynomial", "Presentation", "Problem",
    "ProblemError", "RankCapExceeded", "Relation", "ResidueNotPolynomial", "RingElement", "StratumClassSum",
    "Sublattice", "TorbunError", "ZeroVector", "balancing_sides", "check_balancing", "check_pp",
    "cone_equivariant_multiplicity", "cone_from_rays", "diagonal_class", "displacement_pairs", "divide_exact",
    "equivariant_multiplicity", "equivariant_presentation", "faces_of", "fan_from_ray_lists",
    "find_generic_vector", "full_sublattice", "homology_presentation", "is_complete", "is_face",
    "is_generic_diagonal", "lattice_index", "make_free_truncated", "module_action", "multiplicity",
    "mw_product", "parse_problem", "perp_basis", "poincare_dual_mw", "point_algebra", "pp_to_mw", "primitive",
    "projective_space_algebra", "pushforward_to_base", "reduce_product", "residue_sum", "saturated_span",
    "saturation", "sigma_v_set", "smith_normal_form", "subbundle_class", "triangulate", "unit_weight",
    "zero_cone", "zero_sublattice",
}


def exports():
    return {n for n in dir(tb) if not n.startswith("_") and not isinstance(getattr(tb, n), types.ModuleType)}


def test_exports_are_pinned():
    assert len(EXPORTS) == 75
    assert exports() == EXPORTS


def test_every_unexported_definition_is_used():
    # a module-level function or class that torbun does not export is read,
    # by name or as an attribute, somewhere in the library outside
    # __init__.py; an import alone does not count
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 100
    exported = exports()
    unused = [f"{module}.{name}" for module, name in defined if name not in exported and name not in used]
    assert unused == []


def test_every_import_is_read():
    # a name a library module imports is read there, by name or as the base
    # of an attribute; __init__.py imports only to export, which the pin
    # above checks
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert unread == []


def test_every_method_is_read():
    # a method of a library class that is not a dunder is read as an
    # attribute somewhere in the library, the tests or the benchmark
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
    methods = [
        (f"{path.stem}.{cls.name}", node.name)
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert len(methods) > 100
    unread = [f"{owner}.{name}" for owner, name in methods if not name.startswith("__") and name not in read]
    assert unread == []
