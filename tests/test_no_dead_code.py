"""Every top-level function and class of `husimilab`, and every public
method, has a real caller: a reference by name in `src/`, `benches/` or
`perfbench/` outside its own definition.  A definition that only tests
reference is an oracle, and must be listed on `ORACLES`; code nothing
calls is deleted, not kept.

A reference is a name, an attribute or an imported name in the syntax
tree; references inside the definition itself (recursion) do not count.
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
    "FockState.sector_norms", "bogoliubov_conjugate", "slater_state",
    "gamma1_fock", "mixed_norm_fock", "evolve_exact", "n_sector_masks",
    "first_quantized_hamiltonian",
    # grid
    "Potential.evaluate", "Potential.evaluate_grad", "Potential.export_csv",
    # manybody
    "OneBodyKernel.hermiticity_defect", "OneBodyKernel.occupations",
    "Gamma2View.probe", "Gamma2View.dense", "Gamma2View.partial_trace_matrix",
    "gaussian_orbital", "free_gaussian_evolution", "kinetic_bound_check",
    # meanfield
    "free_transport_exact",
    # phasespace
    "husimi1_direct", "husimi2_marginal_check",
    "wigner_position_marginal", "gaussian_wigner_closed_form",
    "convolution_bridge_check", "oscillation_decay",
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
    refs = {path: list(_references(ast.parse(path.read_text())))
            for path in real + tests}
    problems, test_only = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in _definitions(ast.parse(path.read_text())):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)

            def called_from(files):
                return any(ref == name and not (other == path and line in own)
                           for other in files for ref, line in refs[other])

            if called_from(real):
                continue
            if not called_from(tests):
                problems.append(f"no reference to {path.name}:{qualname}")
            elif qualname in ORACLES:
                test_only.add(qualname)
            else:
                problems.append(f"only tests call {path.name}:{qualname}; "
                                "delete it or list it on ORACLES")
    stale = sorted(set(ORACLES) - test_only)
    if stale:
        problems.append("ORACLES entries that are not test-only definitions: "
                        + ", ".join(stale))
    assert not problems, "\n".join(problems)
