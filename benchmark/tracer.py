"""Call-site tracer for one ``hsqd run``.

Wrappers are installed in the namespaces of the modules that make the calls.
The package binds its cross-module calls with ``from .x import f``, so
patching only the defining module would miss every call.  Span wrappers
record name, start, end and parent in memory; count-only wrappers (for the
determinant kernels, which run more than a million times) bump a counter.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import hsqd
import hsqd.bandgap
import hsqd.davidson
import hsqd.determinants
import hsqd.model
import hsqd.reference
import hsqd.selci
import hsqd.statevector
import hsqd.subspace

# the modules whose calls into the determinant kernels are counted
KERNEL_CALLERS = ("hsqd.subspace", "hsqd.selci")
KERNELS = ("matrix_element", "generate_excitations", "diagonal_energy", "excitation_rank")


def _project_stats(stats, args, kwargs, out):
    stats["dim_sum"] += out.shape[0]
    stats["nnz_sum"] += out.nnz


def _eigen_stats(stats, args, kwargs, out):
    n = args[0].shape[0]
    stats["iterations"] += out.iterations
    stats["max_dim"] = max(stats["max_dim"], n)
    if kwargs.get("method", "auto") != "dense" and n > hsqd.davidson.DENSE_FALLBACK_DIM:
        stats["davidson_calls"] += 1


def _filter_stats(stats, args, kwargs, out):
    stats["shots_in"] += args[0].shots
    stats["shots_kept"] += out.shots


def _sample_stats(stats, args, kwargs, out):
    stats["distinct"] += len(out.counts)


def _expand_stats(stats, args, kwargs, out):
    stats["dim_out"] += out.dimension


def _hci_stats(stats, args, kwargs, out):
    stats["final_dets"] += out[-1].size


# (span name, defining module, function, per-call extras, extra quantity names)
SPANS = (
    ("bandgap.run_workflow", hsqd.bandgap, "run_workflow", None, ()),
    ("model.load_lattice", hsqd.model, "load_lattice", None, ()),
    ("model.map_to_electronic", hsqd.model, "map_to_electronic", None, ()),
    ("model.rotate_basis", hsqd.model, "rotate_basis", None, ()),
    ("reference.solve_mean_field", hsqd.reference, "solve_mean_field", None, ()),
    ("reference.mp2_doubles", hsqd.reference, "mp2_doubles", None, ()),
    ("reference.lucj_from_t2", hsqd.reference, "lucj_from_t2", None, ()),
    ("statevector.build_state", hsqd.statevector, "build_state", None, ()),
    ("statevector.sample", hsqd.statevector, "sample", _sample_stats, ("distinct",)),
    ("statevector.load_samples", hsqd.statevector, "load_samples", None, ()),
    ("subspace.filter_samples", hsqd.subspace, "filter_samples", _filter_stats,
     ("shots_in", "shots_kept")),
    ("subspace.growth_sequence", hsqd.subspace, "growth_sequence", None, ()),
    ("subspace.sqd_sweep", hsqd.subspace, "sqd_sweep", None, ()),
    ("subspace.project_hamiltonian", hsqd.subspace, "project_hamiltonian", _project_stats,
     ("dim_sum", "nnz_sum")),
    ("subspace.energy_variance", hsqd.subspace, "energy_variance", None, ()),
    ("subspace.extsqd_expand", hsqd.subspace, "extsqd_expand", _expand_stats, ("dim_out",)),
    ("davidson.lowest_eigenpair", hsqd.davidson, "lowest_eigenpair", _eigen_stats,
     ("iterations", "davidson_calls", "max_dim")),
    ("selci.fci_ground", hsqd.selci, "fci_ground", None, ()),
    ("selci.hci_ground", hsqd.selci, "hci_ground", _hci_stats, ("final_dets",)),
)
# wrapped by the caller of ``hsqd.cli.main`` rather than by ``install``
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.stats = {name: dict.fromkeys(keys, 0) for name, *_, keys in SPANS}
        self.stats[ROOT_SPAN] = {}
        self.kernel_calls = {name: [0] for name in KERNELS}

    def span(self, name, fn, record=None):
        """Wrap ``fn`` so that every call records a span named ``name``."""
        spans, stack, stats = self.spans, self._stack, self.stats[name]

        def wrapped(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if record is not None:
                record(stats, args, kwargs, out)
            return out

        return wrapped

    def install(self) -> None:
        """Replace every hsqd global bound to a traced function by its wrapper."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hsqd" or name.startswith("hsqd."))]
        for name, module, attr, record, _ in SPANS:
            original = getattr(module, attr)
            wrapper = self.span(name, original, record)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
        for attr in KERNELS:
            original = getattr(hsqd.determinants, attr)
            cell = self.kernel_calls[attr]

            def counted(*args, _fn=original, _cell=cell, **kwargs):
                _cell[0] += 1
                return _fn(*args, **kwargs)

            for modname in KERNEL_CALLERS:
                setattr(sys.modules[modname], attr, counted)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures: inclusive and self seconds, calls, and extras."""
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] += duration
            self_s[name] += duration
            calls[name] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= duration
        out: dict[str, float] = {}
        for name, stats in self.stats.items():
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
            for key, value in stats.items():
                out[f"{name}.{key}"] = value
        shots_in = out["subspace.filter_samples.shots_in"]
        out["subspace.filter_samples.discard_frac"] = (
            1.0 - out["subspace.filter_samples.shots_kept"] / shots_in if shots_in else 0.0
        )
        for attr, cell in self.kernel_calls.items():
            out[f"determinants.{attr}.calls"] = cell[0]
        return out
