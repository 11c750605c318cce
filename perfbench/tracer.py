"""Spans around the public module-level functions of torusmf.

The program is not edited: ``Tracer.install`` rebinds each function in
``TRACED``, in every torusmf module that imported it, to a wrapper defined
here.  While ``tracing`` is on, a wrapper records a span: name, start, end,
parent span, the round it belongs to, the exception it raised, the work
counters read from its result, and the time of the host-speed samples
taken inside it, which its duration leaves out.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

# layer (module) -> functions recorded as spans of that layer
TRACED = {
    "potentials": ("doi_onsager", "transformer"),
    "critical": ("multistart", "solve_fixed_point"),
    "density": ("free_energy",),
    "flow": ("integrate", "stationarity_residual"),
    "metrics": ("w2_circle",),
    "particles": ("chaos_check", "simulate", "em_step", "drift"),
}


def _solve_counters(report) -> dict:
    return {"iterations": report.iterations, "converged": report.converged}


def _flow_counters(trace) -> dict:
    # the last record sits on the last step taken (the horizon, or the step
    # where the residual stop fired)
    return {"steps": int(round(trace.times[-1] / trace.meta["dt"])),
            "records": len(trace.times)}


COUNTERS: dict[str, Callable[[object], dict]] = {
    "critical.solve_fixed_point": _solve_counters,
    "flow.integrate": _flow_counters,
}


def rebind(name: str, make_wrapper: Callable[[Callable], Callable]) -> None:
    """Replace the public function ``name`` ("layer.func") with a wrapper of
    it, in every loaded torusmf module that holds it; nothing if the
    program has no such function."""
    layer, func = name.split(".")
    original = getattr(sys.modules[f"torusmf.{layer}"], func, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "torusmf" or mod_name.startswith("torusmf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    round: str
    error: Optional[str]
    counters: dict
    paused: float  # time of the host-speed samples taken inside the span

    @property
    def duration(self) -> float:
        return self.end - self.start - self.paused


class Tracer:
    """Span recorder over freshly imported copies of the torusmf package."""

    def __init__(self, pacer):
        self.pacer = pacer  # its samples are taken out of the spans
        self.spans: list[Span] = []
        self.tracing = False
        self.round = "setup"
        self._stack: list[int] = []

    def install(self) -> None:
        for layer, funcs in TRACED.items():
            if f"torusmf.{layer}" not in sys.modules:
                continue  # a layer the workload does not import
            for func in funcs:
                name = f"{layer}.{func}"
                rebind(name, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.tracing:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in at the end
            self._stack.append(sid)
            error, result = None, None
            paced = self.pacer.wall
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(
                    sid, name, start, end, parent, self.round, error,
                    counters(result) if counters and error is None else {},
                    self.pacer.wall - paced)

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s._asdict() for s in self.spans]))


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _sum(spans) -> float:
    return sum(s.duration for s in spans)


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one timed round."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[Optional[int], list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def net(s: Span, names: tuple[str, ...]) -> float:
        return s.duration - _sum(c for c in children[s.id] if c.name in names)

    solves = by_name["critical.solve_fixed_point"]
    maps = sum(s.counters["iterations"] for s in solves)
    capped = [s for s in solves if not s.counters["converged"]]
    capped_maps = sum(s.counters["iterations"] for s in capped)
    solve_s = sum(net(s, ("density.free_energy",)) for s in solves)

    flows = by_name["flow.integrate"]
    done = [s for s in flows if s.error is None]
    failed = [s for s in flows if s.error is not None]
    steps = sum(s.counters["steps"] for s in done)
    record_calls = ("density.free_energy", "flow.stationarity_residual",
                    "metrics.w2_circle")
    step_s = sum(net(s, record_calls) for s in done)

    w2 = by_name["metrics.w2_circle"]
    drifts = by_name["particles.drift"]
    check_ids = {s.id for s in by_name["particles.chaos_check"]}
    return {
        "critical.couplings": len(by_name["critical.multistart"]),
        "critical.solves": len(solves),
        "critical.map_applications": maps,
        "critical.capped_solves": len(capped),
        "critical.capped_map_share": capped_maps / maps if maps else 0.0,
        "critical.solve_s": solve_s,
        "critical.map_us": 1e6 * solve_s / maps if maps else 0.0,
        "density.free_energy_calls": len(by_name["density.free_energy"]),
        "density.free_energy_s": _sum(by_name["density.free_energy"]),
        "flow.steps": steps,
        "flow.records": sum(s.counters["records"] for s in done),
        "flow.step_us": 1e6 * step_s / steps if steps else 0.0,
        "flow.residual_s": _sum(by_name["flow.stationarity_residual"]),
        "flow.integrate_calls": len(flows),
        "flow.integrate_failed": len(failed),
        "flow.failed_s": _sum(failed),
        "metrics.w2_calls": len(w2),
        "metrics.w2_s": _sum(w2),
        "metrics.w2_ms": 1e3 * _sum(w2) / len(w2) if w2 else 0.0,
        "particles.replicates": len(by_name["particles.simulate"]),
        "particles.em_steps": len(by_name["particles.em_step"]),
        "particles.drift_evals": len(drifts),
        "particles.drift_s": _sum(drifts),
        "particles.drift_us": (1e6 * _sum(drifts) / len(drifts)
                               if drifts else 0.0),
        "particles.em_self_s": sum(net(s, ("particles.drift",))
                                   for s in by_name["particles.em_step"]),
        "particles.flow_side_s": _sum(s for s in flows
                                      if s.parent in check_ids),
    }


def layer_metrics(spans: list[Span], rounds: list[str],
                  speeds: dict[str, float]) -> dict[str, float]:
    """Median over the traced rounds of each per-round layer metric, plus
    the kernel build time as the median over the set-up repetitions.
    Times are scaled to the reference speed by each round's factor in
    ``speeds`` (see ``pace.Pacer.speed``)."""
    def scaled(metrics: dict[str, float], speed: float) -> dict[str, float]:
        return {k: v * speed if layer_unit(k) in ("s", "ms", "us") else v
                for k, v in metrics.items()}

    per_round = [scaled(round_metrics([s for s in spans if s.round == r]),
                        speeds[r]) for r in rounds]
    out = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    builds: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.round.startswith("setup") and s.name.startswith("potentials."):
            builds[s.round] += s.duration * speeds[s.round]
    out["potentials.build_s"] = statistics.median(builds.values())
    return out
