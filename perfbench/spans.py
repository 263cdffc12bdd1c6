"""Spans recorded from outside the program, by wrapping its public functions.

Each wrapper is installed where the caller looks the function up: a
module global (``vie`` resolves ``solve_system``, ``lu_factor`` and
``g0_from_displacements`` in its own globals; ``report`` and ``ldos``
bind names at import), or a class attribute for the matvec.  Spans stay
in memory as (name, job, parent, start, end, attrs) and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: (module, attribute, span name); "Class.method" patches a class attribute
PATCH_POINTS = (
    ("greenvox.scene", "load_scene", "scene.load"),
    ("greenvox.scene", "build_grid", "geometry.build_grid"),
    ("greenvox.report", "run_validation", "report.validate"),
    ("greenvox.report", "kk_residual", "permittivity.kk"),
    ("greenvox.report", "im_g0_spectral", "green_free.spectral"),
    ("greenvox.report", "dyson_residual", "vie.dyson"),
    ("greenvox.report", "e_coefficient", "modes.e"),
    ("greenvox.report", "e_coefficient_via_green", "modes.e"),
    ("greenvox.report", "m_coefficient", "modes.m"),
    ("greenvox.report", "ldos_identity_residual", "ldos.identity"),
    ("greenvox.report", "gamma_decomposed", "ldos.gamma"),
    ("greenvox.report", "purcell", "ldos.purcell"),
    ("greenvox.ldos", "ldos_identity_residual", "ldos.identity"),
    ("greenvox.ldos", "gamma_decomposed", "ldos.gamma"),
    ("greenvox.ldos", "plane_wave_table", "green_free.plane_wave_table"),
    ("greenvox.vie", "assemble", "vie.assemble"),
    ("greenvox.vie", "lu_factor", "vie.factorize"),
    ("greenvox.vie", "solve_system", "vie.solve"),
    ("greenvox.vie", "g0_from_displacements", "green_free.g0"),
    ("greenvox.vie", "InteractionOperator.apply", "vie.matvec"),
)


def _columns(args, kwargs, result):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    shape = getattr(rhs, "shape", ())
    return {"columns": int(shape[1]) if len(shape) == 2 else 1}


def _kernel_bytes(args, kwargs, result):
    kernel = getattr(result, "kernel", None)
    return {"kernel_bytes": 0 if kernel is None else int(kernel.nbytes)}


#: span name -> attrs(args, kwargs, result) recorded on return
ATTRS = {"vie.solve": _columns, "vie.assemble": _kernel_bytes}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.job = None

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self.job, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path):
        rows = [{"name": n, "job": j, "parent": p, "start": s, "end": e, "attrs": a}
                for n, j, p, s, e, a in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def layer_totals(spans, job) -> dict:
    """Per-layer calls, total time, self time and attrs summed over one job.

    Self time is a span's duration minus the durations of its direct
    traced children (calls are sequential, so children never overlap).
    """
    child_time: dict[int, float] = {}
    for n, j, parent, s, e, a in spans:
        if j == job and parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (e - s)
    out: dict[str, dict] = {}
    for idx, (n, j, parent, s, e, a) in enumerate(spans):
        if j != job:
            continue
        row = out.setdefault(n, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += e - s
        row["self_s"] += (e - s) - child_time.get(idx, 0.0)
        for key, value in (a or {}).items():
            if key == "kernel_bytes":
                row[key] = max(row.get(key, 0), value)
            else:
                row[key] = row.get(key, 0) + value
    return out
