"""Every top-level function and class of `husimilab`, and every public
method, has a real caller: a reference by name in `src/` or `perfbench/`
outside its own definition.  A definition that only tests or `benches/`
reference is an oracle, and must be listed on `ORACLES`; code nothing
calls is deleted, not kept.  A bench times code; it does not make the
code it times part of a run.

A reference is a name that is read, an attribute or an imported name in
the syntax tree; a public method is referenced only as an attribute, so a
local variable or argument that shares its name does not keep it.
References inside the definition itself (recursion) do not count.
A reference made inside a test-only definition counts as a test
reference, so a helper that only oracles reach is test-only too.  The
test-only set is grown to a fixed point.

Every public attribute that the `__init__` of a class in `src` (one not
on `ORACLES`) assigns as `self.name = ...` is read as an attribute in
`src/` or `perfbench/`: a value that nothing reads is not computed.
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
    # fock; mode_operators is the per-mode reference the stacked pair is
    # tested against and builds the tests' Slater states
    "vacuum", "mode_operators",
    # fock: the exact mixed norm of the two-particle factorization defect
    "gamma2_fock", "mixed_norm_fock",
    # grid
    "Potential.evaluate", "Potential.grad_sup",
    # manybody
    "OneBodyKernel.hermiticity_defect", "OneBodyKernel.occupations",
    "gaussian_orbital", "free_gaussian_evolution", "kinetic_bound_check",
    "kinetic_energy",
    # manybody: the grid export the tests hold the coefficient kernels to
    "ManyBodyState.to_grid",
    # meanfield
    "free_transport_exact",
    # phasespace; moments holds the Husimi transform and the free flow to
    # the closed-form Gaussian moments
    "husimi1_direct", "husimi_point", "_coherent_state",
    "gaussian_wigner_closed_form", "moments",
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


def _init_attributes(tree: ast.Module):
    """Class.name of each public attribute that the `__init__` of a
    class off `ORACLES` assigns to self."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name in ORACLES:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                            and not sub.attr.startswith("_")):
                        yield f"{node.name}.{sub.attr}"


def _references(tree: ast.Module):
    """(name, line, attribute) of every name not assigned to, attribute
    and imported name; attribute is True for an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def _refers_to(qualname: str, attribute: bool) -> bool:
    """Whether a reference by the last part of `qualname` can be one to
    it: to a method only as an attribute."""
    return attribute or "." not in qualname


def _py_files(*dirs: str) -> list[Path]:
    return [path for d in dirs for path in sorted((ROOT / d).glob("*.py"))]


def test_every_definition_is_referenced():
    real = _py_files("src/husimilab", "perfbench")
    tests = _py_files("tests", "benches")
    sites: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in real + tests:
        for ref, line, attribute in _references(ast.parse(path.read_text())):
            sites.setdefault(ref, []).append((path, line, attribute))
    defs = [(qualname, path, range(node.lineno, node.end_lineno + 1))
            for path in sorted(PACKAGE.glob("*.py"))
            for qualname, node in _definitions(ast.parse(path.read_text()))]

    def referenced(qualname, path, own, files, excluded=()):
        """A reference to the definition from `files`, outside its own
        body and outside the `excluded` (path, lines) spans."""
        return any(other in files and not (other == path and line in own)
                   and not any(other == p and line in span
                               for p, span in excluded)
                   and _refers_to(qualname, attribute)
                   for other, line, attribute
                   in sites.get(qualname.rsplit(".")[-1], []))

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


def test_a_local_named_like_a_method_is_no_reference():
    """An assignment to a local is no reference; reading that local or an
    argument of a method's name does not reference the method, while an
    attribute does, and a read name still references a top-level
    definition."""
    tree = ast.parse("def f(energy):\n"
                     "    density = energy + 1\n"
                     "    return density, flow.apply(density)\n")
    refs = [(name, attribute) for name, _, attribute in _references(tree)]
    assert refs.count(("density", False)) == 2  # the two reads
    for name in ("density", "energy"):
        assert not any(_refers_to(f"MeanFieldState.{name}", attribute)
                       for ref, attribute in refs if ref == name)
        assert _refers_to(name, False)
    assert ("apply", True) in refs and _refers_to("SlaterFlow.apply", True)


def test_every_init_attribute_is_read():
    reads = {node.attr
             for path in _py_files("src/husimilab", "perfbench")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = [name for path in sorted(PACKAGE.glob("*.py"))
              for name in _init_attributes(ast.parse(path.read_text()))
              if name.rsplit(".")[-1] not in reads]
    assert not unread, "attributes no code reads: " + ", ".join(unread)
