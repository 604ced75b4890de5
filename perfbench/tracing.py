"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions and methods of every
`husimilab` module with timing wrappers.  A function imported by name
(`from husimilab.manybody import gamma1`) is replaced in the importing
module too, so a call is caught wherever the name is looked up.

A span is recorded for every call that crosses a module boundary, and for
every call of a function that a per-layer metric names, even from inside
its own module (the step functions, for instance).  Spans are kept in
memory as `[name, start, end, parent, arg]`; `arg` holds the step count or
file path that a count metric reads.  The layers are the modules.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "harness", "grid", "manybody", "phasespace", "residues",
          "meanfield", "fock", "snapshots")

# metric -> span names whose outermost calls it sums (inclusive time)
TIME_METRICS = {
    "manybody.propagate_s": ["manybody.propagate"],
    "manybody.gamma1_s": ["manybody.gamma1"],
    "manybody.gamma2_s": ["manybody.Gamma2View.partial_diag"],
    "meanfield.hf_s": ["meanfield.hartree_fock_evolve"],
    "meanfield.vlasov_s": ["meanfield.vlasov_evolve"],
    "meanfield.diagnostics_s": [
        "meanfield.hf_energy", "meanfield.vlasov_energy",
        "meanfield.vlasov_cfl", "meanfield.norm_gaps",
        "meanfield.commutator_norms", "meanfield.husimi_vlasov_distance"],
    "residues.interaction_s": ["residues.interaction_residue_fields"],
    "residues.kinetic_s": ["residues.kinetic_residue_field"],
    "residues.consistency_s": ["residues.reformulation_consistency"],
    "phasespace.husimi1_s": ["phasespace.husimi1"],
    "phasespace.wigner1_s": ["phasespace.wigner1"],
    "snapshots.csv_s": ["snapshots.field_csv"],
    "snapshots.write_s": ["snapshots.write_state", "snapshots.write_field",
                          "snapshots.write_orbitals",
                          "snapshots.write_report"],
    "snapshots.read_s": ["snapshots.read_state", "snapshots.read_field",
                         "snapshots.read_orbitals", "snapshots.read_report"],
    "snapshots.hash_s": ["snapshots.file_hash", "snapshots.config_hash"],
    "fock.suite_s": ["fock.operator_inequality_suite"],
    "fock.dgamma_s": ["fock.dgamma"],
    "fock.pair_s": ["fock.pair_annihilation", "fock.pair_creation"],
    "fock.norms_s": ["fock.OneBodyOperator.__init__", "fock.FockState.norm",
                     "fock.number_operator", "fock.number_shifted"],
}

# Diagnostics called inside a time step (the CFL check of each Vlasov
# step) belong to the stepper, not to the run's diagnostics.
EXCLUDE_UNDER = {
    "meanfield.diagnostics_s": {"meanfield.hartree_fock_evolve",
                                "meanfield.vlasov_evolve"},
}

CALL_COUNTS = {
    "manybody.gamma1_calls": "manybody.gamma1",
    "meanfield.hf_steps": "meanfield.hartree_fock_step",
    "meanfield.vlasov_steps": "meanfield.vlasov_step",
    "residues.interaction_calls": "residues.interaction_residue_fields",
    "phasespace.husimi1_calls": "phasespace.husimi1",
}

# span name -> (positional index, keyword) of the argument a count reads
ARG_OF = {
    "manybody.propagate": (3, "steps"),
    **{name: (0, "path") for name in TIME_METRICS["snapshots.write_s"]},
    **{name: (0, "path") for name in TIME_METRICS["snapshots.read_s"]},
}

ALWAYS_SPAN = ({n for names in TIME_METRICS.values() for n in names}
               | set(CALL_COUNTS.values()))

PER_LAYER = (list(TIME_METRICS) + list(CALL_COUNTS)
             + ["manybody.propagate_steps", "manybody.step_s",
                "snapshots.write_bytes", "snapshots.read_bytes"]
             + [f"{layer}.self_s" for layer in LAYERS]
             + ["trace.run_s", "trace.spans"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, home: dict):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        always = name in ALWAYS_SPAN
        arg_at = ARG_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            arg = None
            if arg_at is not None:
                pos, key = arg_at
                arg = args[pos] if len(args) > pos else kwargs.get(key)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, arg]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, modules) -> None:
        """Wrap the public callables of `modules` (husimilab submodules)."""
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            src = mod.__file__
            home = vars(mod)
            for attr, obj in list(home.items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, f"{layer}.{attr}", src, home)
                elif _defined_in(obj, src):
                    wrapper = self._wrap(obj, f"{layer}.{attr}", home)
                    replaced[id(obj)] = (obj, wrapper)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, prefix: str, src: str, home: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(obj, classmethod) and _defined_in(obj.__func__, src):
                setattr(cls, attr, classmethod(
                    self._wrap(obj.__func__, f"{prefix}.{attr}", home)))
            elif inspect.isfunction(obj) and _defined_in(obj, src):
                setattr(cls, attr, self._wrap(obj, f"{prefix}.{attr}", home))


def _defined_in(obj, src: str) -> bool:
    fn = getattr(obj, "__wrapped__", obj)
    code = getattr(fn, "__code__", None)
    return callable(obj) and code is not None and code.co_filename == src


def _outermost(spans, i: int, names) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(spans, run_s: float) -> dict:
    """Per-layer metrics of the spans of one operation.

    `run_s` is the operation's traced wall time.  The part of it outside
    every span is charged to the cli layer, whose `main` is the root span
    of each command, so the layer self times sum to `run_s`.
    """
    out = {name: 0.0 for name in PER_LAYER}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    covered = 0.0
    for i, (name, start, end, parent, arg) in enumerate(spans):
        dur = end - start
        out[f"{name.split('.', 1)[0]}.self_s"] += dur - child_time[i]
        if parent < 0:
            covered += dur
    out["cli.self_s"] += run_s - covered

    for metric, names in TIME_METRICS.items():
        names = set(names)
        blocked = names | EXCLUDE_UNDER.get(metric, set())
        out[metric] = sum(s[2] - s[1] for i, s in enumerate(spans)
                          if s[0] in names and _outermost(spans, i, blocked))
    for metric, name in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s[0] == name)
    out["manybody.propagate_steps"] = sum(
        int(s[4]) for s in spans if s[0] == "manybody.propagate")
    steps = out["manybody.propagate_steps"]
    if steps:
        out["manybody.step_s"] = out["manybody.propagate_s"] / steps
    for metric, timed in (("snapshots.write_bytes", "snapshots.write_s"),
                          ("snapshots.read_bytes", "snapshots.read_s")):
        out[metric] = sum(_size(s[4]) for s in spans
                          if s[0] in TIME_METRICS[timed])
    out["trace.run_s"] = run_s
    out["trace.spans"] = len(spans)
    return out


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0
