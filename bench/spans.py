"""Run-time span tracing of fredstab's public functions, from outside.

The tracer replaces every public function of every fredstab module at
each module binding (``build_transform`` in ``transform``, ``simulate`` and
the package namespace alike) with a wrapper that records a span: name,
start, end, parent, stage.  Spans stay in memory, one list per thread.
Dense numpy/scipy entry points get counting wrappers that record no span,
so their time stays in the calling function's self time.  No profiler is
used: its per-call cost is what distorted earlier baselines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

import numpy as np
import scipy.linalg

MODULES = ("cli_io", "models", "spectral_core", "synthesis", "transform",
           "simulate", "diagnostics", "jsonio")

# Self time of a span goes to the first group that names its function; a
# module's other public functions go to the module's catch-all group.
GROUPS = {
    "spectral_core.assumptions_s": ("verify_assumptions", "verify_growth",
                                    "verify_gap", "verify_control"),
    "spectral_core.json_s": ("system_to_json", "system_from_json"),
    "synthesis.select_shift_s": ("select_shift",),
    "synthesis.direct_s": ("solve_gains_direct",),
    "synthesis.iterative_s": ("solve_gains_iterative",),
    "synthesis.cauchy_s": ("cauchy_system_matrix",),
    "synthesis.gap_profile_s": ("inverse_gap_sum_profile",),
    "transform.build_s": ("build_transform", "build_system_transform",
                          "operator_equality_residual"),
    "transform.closed_loop_s": ("closed_loop_matrix",),
    "transform.conditioning_s": ("conditioning_profile",
                                 "conditioning_vs_truncation"),
    "transform.json_s": ("transform_to_json", "transform_from_json"),
    "simulate.semigroup_s": ("simulate_closed_loop:semigroup_exact",),
    "simulate.rk4_s": ("simulate_closed_loop:rk4",),
    "simulate.burgers_s": ("simulate_burgers",),
    "simulate.csv_s": ("trace_to_csv",),
    "cli_io.sweep_wait_s": ("sweep_wait",),
    "diagnostics.spectrum_match_s": ("spectrum_match_error",),
    "diagnostics.svg_s": ("svg_line_plot",),
    "jsonio.write_s": ("write_json", "canonical_json"),
    "jsonio.read_s": ("read_json",),
}
CATCH_ALL = {
    "cli_io": "cli_io.self_s",
    "models": "models.build_s",
    "spectral_core": "spectral_core.other_s",
    "synthesis": "synthesis.other_s",
    "transform": "transform.build_s",
    "simulate": "simulate.other_s",
    "diagnostics": "diagnostics.report_s",
    "jsonio": "jsonio.other_s",
}
_GROUP_OF = {f"{key.split('.')[0]}.{fn}": key
             for key, fns in GROUPS.items() for fn in fns}
CALL_COUNTS = {
    "synthesis.solve_gains_direct": "synthesis.direct_calls",
    "synthesis.cauchy_system_matrix": "synthesis.cauchy_builds",
    "transform.build_transform": "transform.build_calls",
    "transform.closed_loop_matrix": "transform.closed_loop_calls",
}
FILE_SIZES = {
    "simulate.trace_to_csv": "simulate.csv_mb",
    "jsonio.write_json": "jsonio.write_mb",
    "jsonio.read_json": "jsonio.read_mb",
}

# Dense kernels counted outside fredstab: (namespace, attribute, kind).
LINALG = (
    (np.linalg, "eigvals", "eigvals"),
    (np.linalg, "cond", "svd"),
    (np.linalg, "svd", "svd"),
    (np.linalg, "solve", "factor"),
    (np.linalg, "inv", "factor"),
    (scipy.linalg, "solve", "factor"),
    (scipy.linalg, "lu_factor", "factor"),
    (scipy.linalg, "inv", "factor"),
)
# Textbook real-flop counts for an n x n matrix (Golub & Van Loan); complex
# arithmetic costs four real flops per operation.  Computed, not measured.
_CUBIC = {"eigvals": 10.0, "svd": 8.0 / 3.0, "factor": 2.0 / 3.0, "inv": 2.0}


def _file_mb(*paths) -> float:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) / 1e6


def _burgers_steps(args, kwargs) -> int:
    times = np.asarray(kwargs.get("times", args[3] if len(args) > 3 else []), dtype=float)
    dt = float(kwargs.get("dt", args[4] if len(args) > 4 else 1e-4))
    return int(np.sum(np.ceil(np.diff(times) / dt - 1e-9)))


def _integrator(args, kwargs) -> str:
    return str(kwargs.get("integrator", args[4] if len(args) > 4 else "semigroup_exact"))


# Per-function notes, taken from the call's arguments and result.
_NOTES = {
    "synthesis.solve_gains_iterative":
        lambda a, k, r: {"iterations": int(r.iterations or 0)},
    "simulate.simulate_burgers": lambda a, k, r: {"steps": _burgers_steps(a, k)},
    "simulate.trace_to_csv": lambda a, k, r: {"mb": _file_mb(
        k.get("modes_path", a[1] if len(a) > 1 else ""),
        k.get("norms_path", a[2] if len(a) > 2 else ""))},
    "jsonio.write_json": lambda a, k, r: {"mb": _file_mb(a[0] if a else k["path"])},
    "jsonio.read_json": lambda a, k, r: {"mb": _file_mb(a[0] if a else k["path"])},
}

# Notes that must be read before the call (they rename the span).
_VARIANTS = {"simulate.simulate_closed_loop": _integrator}


class Tracer:
    """Span recorder; create one per process, call install(), then summary()."""

    def __init__(self, workload: str = ""):
        self.workload = workload
        self.stage = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], [], [])   # spans, stack, kernel calls
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn):
        note = _NOTES.get(name)
        variant = _VARIANTS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, _ = tracer._state()
            label = f"{name}:{variant(args, kwargs)}" if variant else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, tracer.stage, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def _count(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            arr = np.asarray(a)
            n = arr.shape[-1] if arr.ndim else 0
            flops = _CUBIC["inv" if fn.__name__ == "inv" else kind] * n ** 3
            if np.iscomplexobj(arr):
                flops *= 4.0
            tracer._state()[2].append((kind, flops))
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap fredstab's public functions at every binding, and the kernels."""
        package = importlib.import_module("fredstab")
        modules = [importlib.import_module(f"fredstab.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = (f"{short}.{attr}", self.wrap(f"{short}.{attr}", obj))
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    _, wrapper = wrappers[obj]
                    setattr(mod, attr, wrapper)
        cli_io = modules[0]
        base = cli_io.ThreadPoolExecutor
        wrap = self.wrap

        def drain(results) -> list:
            return list(results)

        class PointPool(base):
            """Thread pool whose tasks (sweep points) are spans of their own.

            The caller's wait for the results is a span too, so it is not
            counted as the caller's self time.
            """

            def map(self, fn, *iterables, **kwargs):
                results = super().map(wrap("cli_io.sweep_point", fn), *iterables, **kwargs)
                return wrap("cli_io.sweep_wait", drain)(results)

        cli_io.ThreadPoolExecutor = PointPool
        for namespace, attr, kind in LINALG:
            setattr(namespace, attr, self._count(kind, getattr(namespace, attr)))

    def summary(self, jobs: int) -> dict:
        """Per-layer metrics of everything recorded so far."""
        groups = dict.fromkeys(list(GROUPS) + list(CATCH_ALL.values()), 0.0)
        counts = dict.fromkeys(list(CALL_COUNTS.values()) + [
            "synthesis.iterations", "linalg.eigvals_calls", "linalg.svd_calls",
            "linalg.factor_calls"], 0)
        sizes = dict.fromkeys(FILE_SIZES.values(), 0.0)
        flops = 0.0
        steps = 0
        busy = 0.0
        sweep_wall = 0.0
        with self._lock:
            threads = list(self._threads)
        for spans, _, kernels in threads:
            child = [0.0] * len(spans)
            for rec in spans:
                if rec[3] >= 0:
                    child[rec[3]] += rec[2] - rec[1]
            for i, (label, t0, t1, _, _, note) in enumerate(spans):
                base = label.split(":")[0]
                module = base.split(".")[0]
                group = _GROUP_OF.get(label) or _GROUP_OF.get(base) or CATCH_ALL[module]
                own = (t1 - t0) - child[i]
                groups[group] += own
                note = note or {}
                if base in CALL_COUNTS:
                    counts[CALL_COUNTS[base]] += 1
                if base in FILE_SIZES:
                    sizes[FILE_SIZES[base]] += note.get("mb", 0.0)
                if base == "cli_io.sweep_point":
                    busy += t1 - t0
                elif base == "cli_io.cmd_sweep":
                    sweep_wall += t1 - t0
                counts["synthesis.iterations"] += note.get("iterations", 0)
                steps += note.get("steps", 0)
            for kind, f in kernels:
                counts[f"linalg.{kind}_calls"] += 1
                flops += f
        metrics = dict(groups)
        metrics.update(counts)
        metrics.update(sizes)
        metrics["simulate.burgers_step_us"] = (
            1e6 * groups["simulate.burgers_s"] / steps if steps else 0.0)
        metrics["cli_io.sweep_busy_share"] = (
            busy / (sweep_wall * jobs) if sweep_wall > 0 else 0.0)
        metrics["linalg.cubic_gflop"] = flops / 1e9
        return {"workload": self.workload, "metrics": metrics}
