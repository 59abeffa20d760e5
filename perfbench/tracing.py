"""Span tracing of the fput_fronts package, installed from outside it.

``install`` rebinds the package's public functions to timing wrappers:
every module-level name is replaced in each ``fput_fronts`` module that holds
it (so ``cli``'s ``run_lattice`` alias and ``front_solver``'s imported
``lsmr`` are caught), and the listed class methods are replaced on their
classes.  Each wrapped call records one span

    [name, start, end, parent span index, op id]

in memory.  numpy's FFTs are counted, not spanned: every ``fput_fronts``
module gets a copy of the numpy namespace whose ``fft`` functions bump
counters, so transforms called from elsewhere (scipy) are not counted.

Nothing in ``src/`` changes; an uninstrumented process pays nothing.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

# module -> {attribute: span name}
FUNCTIONS = {
    "continuum": {"solve_R0": "continuum.solve_R0"},
    "front_solver": {
        "solve_front": "front_solver.solve_front",
        "background_term": "front_solver.background_term",
        "lsmr": "front_solver.lsmr",
        "_recenter": "front_solver.recenter",
        "continuation_sweep": "front_solver.continuation_sweep",
        "derivative_consistency": "front_solver.derivative_consistency",
    },
    "grids": {
        "spectral_derivative": "grids.spectral_derivative",
        "periodic_shift": "grids.periodic_shift",
        "interpolate_local": "grids.interpolate_local",
    },
    "spectral": {
        "find_pole": "spectral.find_pole",
        "symbol_a": "spectral.symbol_a",
        "tent_symbol": "spectral.tent_symbol",
    },
    "lattice_sim": {
        "init_chain": "lattice_sim.init_chain",
        "run": "lattice_sim.run",
        "step_imex": "lattice_sim.step_imex",
        "solve_banded": "lattice_sim.solve_banded",
        "crossing_position": "lattice_sim.crossing_position",
        "run_free_chain": "lattice_sim.run_free_chain",
        "measure_front_speed": "lattice_sim.measure_front_speed",
        "compare_profile": "lattice_sim.compare_profile",
    },
    "analysis": {
        "consolidated_report": "analysis.consolidated_report",
        "fit_decay_rates": "analysis.fit_decay_rates",
    },
    "cli": {
        "write_profile_csv": "cli.write_profile_csv",
        "write_json": "cli.write_json",
    },
}

# (module, class) -> {method: span name}
METHODS = {
    ("potentials", "Potential"): {
        "phi": "potentials.phi",
        "dphi": "potentials.dphi",
        "d2phi": "potentials.d2phi",
    },
    ("continuum", "ContinuumSolution"): {
        "__call__": "continuum.eval",
        "gap": "continuum.eval",
    },
    ("front_solver", "FrontSolution"): {"residual_tent": "front_solver.residual_tent"},
}

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.op_counts: list[dict] = []
        self.counts: dict = defaultdict(float)

    def begin_op(self, op_id: int) -> int:
        """Start op ``op_id``: fresh counters and an ``op`` root span."""
        self.op_id = op_id
        self.counts = defaultdict(float)
        self.op_counts.append(self.counts)
        return self.open("op")

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def wrap(self, name: str, fn, count=None):
        """Span-recording wrapper; ``count(tracer, args, kwargs, out)`` runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, args, kwargs, out)
            return out

        return traced


# -- counters attached to spans ------------------------------------------------


def _points(key):
    def count(tr, args, kwargs, out):
        tr.counts[key + ".points"] += np.size(args[1])

    return count


def _eval_points(tr, args, kwargs, out):
    # __call__ delegates the left half to gap(); count only the outer call
    if tr.parent_name() != "continuum.eval":
        tr.counts["continuum.eval.points"] += np.size(args[1])


def _newton_steps(tr, args, kwargs, out):
    tr.counts["front_solver.newton_steps"] += out.iterations


def _krylov_iterations(tr, args, kwargs, out):
    tr.counts["front_solver.krylov_iterations"] += int(out[2])


def _step(tr, args, kwargs, out):
    tr.counts["lattice_sim.steps"] += 1


def _free_chain(tr, args, kwargs, out):
    tr.counts["lattice_sim.steps"] += len(out.energies) - 1


def _checks_failed(tr, args, kwargs, out):
    tr.counts["analysis.checks_failed"] += sum(1 for c in out if not c["pass"])


def _written(key):
    def count(tr, args, kwargs, out):
        tr.counts[key + ".bytes"] += os.path.getsize(args[0])

    return count


# counters beyond the call counts that every span gives
COUNTERS = {
    "continuum.eval": _eval_points,
    "front_solver.solve_front": _newton_steps,
    "front_solver.lsmr": _krylov_iterations,
    "potentials.phi": _points("potentials.phi"),
    "potentials.dphi": _points("potentials.dphi"),
    "potentials.d2phi": _points("potentials.d2phi"),
    "lattice_sim.step_imex": _step,
    "lattice_sim.run_free_chain": _free_chain,
    "analysis.consolidated_report": _checks_failed,
    "cli.write_profile_csv": _written("cli.write_profile_csv"),
    "cli.write_json": _written("cli.write_json"),
}


def _counted_fft(tr: Tracer, fn):
    @functools.wraps(fn)
    def counted(a, *args, **kwargs):
        out = fn(a, *args, **kwargs)
        size_in = np.size(a)
        tr.counts["spectral.fft.calls"] += 1
        tr.counts["spectral.fft.points"] += max(size_in, out.size)
        # computed, not measured: input plus output array bytes
        tr.counts["spectral.fft.bytes_computed"] += (
            size_in * np.asarray(a).itemsize + out.nbytes
        )
        return out

    return counted


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fput_fronts" or name.startswith("fput_fronts."))
    ]


def install(tracer: Tracer) -> None:
    """Rebind the package's functions, methods and numpy FFTs to traced ones."""
    import fput_fronts.cli  # noqa: F401  (every module of the package is loaded)

    modules = _package_modules()
    pkg = sys.modules["fput_fronts"]
    for mod_name, attrs in FUNCTIONS.items():
        home = getattr(pkg, mod_name)
        for attr, span in attrs.items():
            original = getattr(home, attr)
            traced = tracer.wrap(span, original, COUNTERS.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    for (mod_name, cls_name), methods in METHODS.items():
        cls = getattr(getattr(pkg, mod_name), cls_name)
        for meth, span in methods.items():
            setattr(cls, meth, tracer.wrap(span, vars(cls)[meth], COUNTERS.get(span)))

    fft = types.ModuleType("numpy.fft")
    fft.__dict__.update(np.fft.__dict__)
    for fn in FFT_FUNCTIONS:
        setattr(fft, fn, _counted_fft(tracer, getattr(np.fft, fn)))
    numpy_view = types.ModuleType("numpy")
    numpy_view.__dict__.update(np.__dict__)
    numpy_view.fft = fft
    for mod in modules:
        if vars(mod).get("np") is np:
            mod.np = numpy_view


# -- reduction -------------------------------------------------------------------


def op_times(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """Per op: span name -> {"self": s, "incl": s, "calls": n}.

    Self time is a span's duration minus the durations of its direct
    children (spans of one thread nest, so children never overlap).
    Inclusive time and calls count only the outermost span of a name, so the
    ``__call__`` -> ``gap`` nesting of ``continuum.eval`` is not doubled.
    """
    out: dict[int, dict] = defaultdict(
        lambda: defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0})
    )
    for name, start, end, parent, op in spans:
        dur = end - start
        rec = out[op][name]
        rec["self"] += dur
        if parent >= 0:
            pname = spans[parent][NAME]
            out[op][pname]["self"] -= dur
            if pname == name:
                continue
        rec["incl"] += dur
        rec["calls"] += 1
    return out
