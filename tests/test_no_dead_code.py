"""Every top-level function and class of `husimilab`, and every public
method, has a real caller: a reference by name in `src/`, `benches/` or
`perfbench/` outside its own definition.  A definition that only tests
reference is an oracle, and must be listed on `ORACLES`; code nothing
calls is deleted, not kept.

A reference is a name, an attribute or an imported name in the syntax
tree; references inside the definition itself (recursion) do not count.
A reference made inside a test-only definition counts as a test
reference, so a helper that only oracles reach is test-only too.  The
test-only set is grown to a fixed point.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "husimilab"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions in `src` that only tests call: closed forms, brute-force
# builders and property checks that the tests hold the run's kernels to.
ORACLES = (
    # fock
    "vacuum", "bogoliubov_conjugate", "slater_state", "gamma1_fock",
    "mixed_norm_fock",
    # grid
    "Potential.evaluate", "Potential.evaluate_grad", "Potential.grad_sup",
    # manybody
    "OneBodyKernel.hermiticity_defect", "OneBodyKernel.occupations",
    "gaussian_orbital", "free_gaussian_evolution", "kinetic_bound_check",
    "momentum_first_moment",
    # meanfield
    "free_transport_exact",
    # phasespace
    "husimi1_direct", "husimi_point", "_coherent_state", "_coherent_matrix",
    "husimi2_full", "husimi2_point", "husimi2_marginal_check",
    "wigner_position_marginal", "gaussian_wigner_closed_form",
    "convolution_bridge_check",
)


def _definitions(tree: ast.Module):
    """(name, node) of top-level defs and of public methods of classes."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _py_files(*dirs: str) -> list[Path]:
    return [path for d in dirs for path in sorted((ROOT / d).glob("*.py"))]


def test_every_definition_is_referenced():
    real = _py_files("src/husimilab", "benches", "perfbench")
    tests = _py_files("tests")
    sites: dict[str, list[tuple[Path, int]]] = {}
    for path in real + tests:
        for ref, line in _references(ast.parse(path.read_text())):
            sites.setdefault(ref, []).append((path, line))
    defs = [(qualname, path, range(node.lineno, node.end_lineno + 1))
            for path in sorted(PACKAGE.glob("*.py"))
            for qualname, node in _definitions(ast.parse(path.read_text()))]

    def referenced(qualname, path, own, files, excluded=()):
        """A reference to the definition from `files`, outside its own
        body and outside the `excluded` (path, lines) spans."""
        return any(other in files and not (other == path and line in own)
                   and not any(other == p and line in span
                               for p, span in excluded)
                   for other, line in sites.get(qualname.rsplit(".")[-1], []))

    test_only: dict[str, tuple[Path, range]] = {}
    grown = True
    while grown:
        spans = list(test_only.values())
        new = {qualname: (path, own) for qualname, path, own in defs
               if qualname not in test_only
               and not referenced(qualname, path, own, real, spans)}
        test_only.update(new)
        grown = bool(new)

    problems = []
    for qualname, (path, own) in sorted(test_only.items()):
        if not referenced(qualname, path, own, real + tests):
            problems.append(f"no reference to {path.name}:{qualname}")
        elif qualname not in ORACLES:
            problems.append(f"only tests call {path.name}:{qualname}; "
                            "delete it or list it on ORACLES")
    stale = sorted(set(ORACLES) - set(test_only))
    if stale:
        problems.append("ORACLES entries that are not test-only definitions: "
                        + ", ".join(stale))
    assert not problems, "\n".join(problems)
