"""Span and count tracing of mppfv's layers, installed from the benchmark.

``Tracer.install()`` replaces, for one traced run, the names that mppfv's
modules look up when they call into a layer with thin wrappers, and
``Tracer.uninstall()`` puts the original objects back.  Nothing under
``src/`` knows about the tracer.

A wrapper records a span (name, start, end, parent span) or a count.  Spans
are kept in flat arrays, so a run of a few hundred thousand spans costs a
few megabytes; they are reduced to the per-layer metrics when the run ends.
A span's self time is its duration minus the durations of its child spans
(the program is single threaded, so children never overlap).

Install points, by span name:

``harness.step``
    the stepper closure built by ``harness._make_stepper``
``time_integration.dirk_step`` / ``time_integration.iex_step``
    ``harness.dirk_step`` / ``harness.iex_step``
``limiters.gmc`` / ``limiters.fct``
    ``harness._gmc_with_flux`` / ``harness._fct_with_flux``
``limiters.gmc_substep``
    the substep closure of ``harness.make_semidiscrete_gmc_substep_solver``
``limiters.zalesak``
    ``limiters.zalesak_alphas``
``solvers.newton``
    the stage solver of ``harness.make_stage_solver``
``solvers.newton_low``
    ``harness.newton_low_order``
``solvers.assemble``
    ``solvers.assemble_pseudo_jacobian``
``solvers.lu_factor`` / ``solvers.linear_solve``
    ``SparseBandedMatrix.factorize`` / ``SparseBandedMatrix.solve``
``fluxes.high_order``
    ``high_order_flux`` in ``fluxes`` (used by ``solvers``), ``limiters``
    and ``time_integration``
``fluxes.low_order``
    ``low_order_with_bars`` in ``fluxes`` and ``limiters``
``weno.face_values``
    ``weno.face_values_line``
``mesh.ghost_fill``
    ``ghost_fill`` in ``fluxes``, ``solvers`` and ``metrics``
``metrics``
    ``harness.update_delta``, ``harness.compute_E1``, ``harness.total_mass``

Counts without spans: ``FaceFluxSet`` constructions, GMRES inner
iterations (a ``pr_norm`` callback passed to ``scipy.sparse.linalg.gmres``,
which changes no arithmetic), and the GMRES solves that fell back to LU.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

ROOT_SPAN = "harness.run"

#: Per-layer metrics: name -> (unit, better).  Times ending in ``.s`` are
#: inclusive (they contain the spans the layer calls, e.g.
#: ``solvers.linear_solve.s`` contains the LU factorizations a solve
#: triggers); ``.self_s`` excludes them.
LAYER_METRICS = {
    "limiters.gmc.sweeps_per_step_mean": ("count", "lower"),
    "limiters.gmc.sweeps_per_step_max": ("count", "lower"),
    "limiters.gmc.self_s": ("s", "lower"),
    "limiters.gmc_substep.sweeps_per_substep_mean": ("count", "lower"),
    "limiters.gmc_substep.self_s": ("s", "lower"),
    "limiters.zalesak.calls": ("count", "lower"),
    "limiters.zalesak.s": ("s", "lower"),
    "limiters.fct.s": ("s", "lower"),
    "solvers.newton.iters_per_stage_mean": ("count", "lower"),
    "solvers.newton.iters_per_stage_max": ("count", "lower"),
    "solvers.newton_low.iters_mean": ("count", "lower"),
    "solvers.assemble.calls": ("count", "lower"),
    "solvers.assemble.s": ("s", "lower"),
    "solvers.lu_factor.count": ("count", "lower"),
    "solvers.lu_factor.s": ("s", "lower"),
    "solvers.linear_solve.calls": ("count", "lower"),
    "solvers.linear_solve.s": ("s", "lower"),
    "solvers.gmres.iters": ("count", "lower"),
    "solvers.gmres.lu_fallbacks": ("count", "lower"),
    "fluxes.high_order.calls": ("count", "lower"),
    "fluxes.high_order.self_s": ("s", "lower"),
    "weno.face_values.calls": ("count", "lower"),
    "weno.face_values.s": ("s", "lower"),
    "fluxes.low_order.calls": ("count", "lower"),
    "fluxes.low_order.self_s": ("s", "lower"),
    "fluxes.faceflux.constructions": ("count", "lower"),
    "mesh.ghost_fill.calls": ("count", "lower"),
    "mesh.ghost_fill.s": ("s", "lower"),
    "time_integration.dirk_step.self_s": ("s", "lower"),
    "time_integration.iex_step.self_s": ("s", "lower"),
    "harness.steps": ("count", "lower"),
    "harness.step_ms_p50": ("ms", "lower"),
    "harness.step_ms_p90": ("ms", "lower"),
    "metrics.s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.attributed_frac": ("ratio", "higher"),
}


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self):
        self._ids = {}
        self._span_name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack = []
        self.counts = {"fluxes.faceflux.constructions": 0,
                       "solvers.lu_factor.count": 0,
                       "solvers.gmres.iters": 0,
                       "solvers.gmres.lu_fallbacks": 0}
        self.samples = {"gmc_sweeps": [], "newton_iters": [],
                        "newton_low_iters": []}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, sample=None):
        """``fn`` inside a span called ``name``.  With ``sample``, the
        ``iterations`` of the ``SolverReport`` that ``fn`` returns last in
        its result tuple is appended to ``self.samples[sample]``."""
        nid = self._ids.setdefault(name, len(self._ids))
        names, starts, ends = self._span_name, self._start, self._end
        parents, stack = self._parent, self._stack
        clock = time.perf_counter
        sink = None if sample is None else self.samples[sample]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sink is not None:
                sink.append(result[-1].iterations)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name, sample=None):
        """Wrap a function in a span."""
        return lambda fn: self.wrap(name, fn, sample)

    def _wrap_factory(self, name, sample=None):
        """Wrap what a factory returns (a stepper or solver closure)."""
        def make(factory):
            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                return self.wrap(name, factory(*args, **kwargs), sample)
            return traced_factory
        return make

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from mppfv import (fluxes, harness, limiters, metrics, solvers,
                           time_integration, weno)
        span = self._span
        try:
            for mod in (fluxes, limiters, time_integration):
                self._replace(mod, "high_order_flux", span("fluxes.high_order"))
            for mod in (fluxes, limiters):
                self._replace(mod, "low_order_with_bars", span("fluxes.low_order"))
            for mod in (fluxes, solvers, metrics):
                self._replace(mod, "ghost_fill", span("mesh.ghost_fill"))
            self._replace(weno, "face_values_line", span("weno.face_values"))
            self._replace(limiters, "zalesak_alphas", span("limiters.zalesak"))
            self._replace(solvers, "assemble_pseudo_jacobian",
                          span("solvers.assemble"))
            self._replace(solvers.SparseBandedMatrix, "factorize",
                          self._traced_factorize)
            self._replace(solvers.SparseBandedMatrix, "solve",
                          self._traced_solve)
            self._replace(solvers.spla, "gmres", self._counted_gmres)
            self._replace(fluxes.FaceFluxSet, "__post_init__",
                          functools.partial(self._counted,
                                            "fluxes.faceflux.constructions"))
            self._replace(harness, "_make_stepper",
                          self._wrap_factory("harness.step"))
            self._replace(harness, "make_stage_solver",
                          self._wrap_factory("solvers.newton", "newton_iters"))
            self._replace(harness, "make_semidiscrete_gmc_substep_solver",
                          self._wrap_factory("limiters.gmc_substep"))
            self._replace(harness, "dirk_step",
                          span("time_integration.dirk_step"))
            self._replace(harness, "iex_step", span("time_integration.iex_step"))
            self._replace(harness, "_gmc_with_flux",
                          span("limiters.gmc", "gmc_sweeps"))
            self._replace(harness, "_fct_with_flux", span("limiters.fct"))
            self._replace(harness, "newton_low_order",
                          span("solvers.newton_low", "newton_low_iters"))
            for attr in ("update_delta", "compute_E1", "total_mass"):
                self._replace(harness, attr, span("metrics"))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_factorize(self, factorize):
        traced = self.wrap("solvers.lu_factor", factorize)
        counts = self.counts

        @functools.wraps(factorize)
        def factorize_counted(matrix):
            if matrix._lu is None:
                counts["solvers.lu_factor.count"] += 1
            return traced(matrix)

        return factorize_counted

    def _traced_solve(self, solve):
        traced = self.wrap("solvers.linear_solve", solve)
        counts = self.counts

        @functools.wraps(solve)
        def solve_counted(matrix, rhs, *args, **kwargs):
            preconditioner = kwargs.get("preconditioner",
                                        args[0] if args else None)
            had_lu = matrix._lu is not None
            x = traced(matrix, rhs, *args, **kwargs)
            if preconditioner is not None and not had_lu \
                    and matrix._lu is not None:
                counts["solvers.gmres.lu_fallbacks"] += 1
            return x

        return solve_counted

    def _counted_gmres(self, gmres):
        counts = self.counts

        def count_iteration(_residual):
            counts["solvers.gmres.iters"] += 1

        @functools.wraps(gmres)
        def gmres_counted(*args, **kwargs):
            if kwargs.get("callback") is not None:
                raise RuntimeError("the traced gmres does not chain callbacks")
            kwargs.update(callback=count_iteration, callback_type="pr_norm")
            return gmres(*args, **kwargs)

        return gmres_counted

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, traced_wall_s):
        """Every per-layer metric of ``LAYER_METRICS`` except
        ``trace.overhead_frac`` (which needs an untraced run)."""
        names = np.asarray(self._span_name, dtype=np.int64)
        parents = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        nested = parents >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parents[nested], dur[nested])
        own = dur - covered
        n_names = max(len(self._ids), 1)
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        self_time = np.bincount(names, weights=own, minlength=n_names)

        def get(table, name):
            nid = self._ids.get(name)
            return float(table[nid]) if nid is not None else 0.0

        def children_per_span(parent_name, child_name):
            """Number of ``child_name`` spans directly under each
            ``parent_name`` span."""
            pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
            if pid is None or cid is None:
                return np.zeros(0)
            per_parent = np.bincount(parents[(names == cid) & nested],
                                     minlength=len(names))
            return per_parent[names == pid]

        def mean(values):
            return float(np.mean(values)) if len(values) else 0.0

        def peak(values):
            return float(np.max(values)) if len(values) else 0.0

        step_ms = 1e3 * dur[names == self._ids.get("harness.step", -1)]
        # Each fixed-point sweep of a substep calls zalesak_alphas once; the
        # last call only confirms convergence, as in SolverReport.iterations.
        substep_sweeps = children_per_span("limiters.gmc_substep",
                                           "limiters.zalesak") - 1
        gmc_sweeps = self.samples["gmc_sweeps"]
        stage_iters = self.samples["newton_iters"]
        root = self._ids.get(ROOT_SPAN)
        step = self._ids.get("harness.step")
        unattributed = sum(float(self_time[i]) for i in (root, step)
                           if i is not None)
        out = {
            "limiters.gmc.sweeps_per_step_mean": mean(gmc_sweeps),
            "limiters.gmc.sweeps_per_step_max": peak(gmc_sweeps),
            "limiters.gmc.self_s": get(self_time, "limiters.gmc"),
            "limiters.gmc_substep.sweeps_per_substep_mean":
                mean(substep_sweeps),
            "limiters.gmc_substep.self_s":
                get(self_time, "limiters.gmc_substep"),
            "limiters.zalesak.calls": get(calls, "limiters.zalesak"),
            "limiters.zalesak.s": get(total, "limiters.zalesak"),
            "limiters.fct.s": get(total, "limiters.fct"),
            "solvers.newton.iters_per_stage_mean": mean(stage_iters),
            "solvers.newton.iters_per_stage_max": peak(stage_iters),
            "solvers.newton_low.iters_mean":
                mean(self.samples["newton_low_iters"]),
            "solvers.assemble.calls": get(calls, "solvers.assemble"),
            "solvers.assemble.s": get(total, "solvers.assemble"),
            "solvers.lu_factor.count":
                float(self.counts["solvers.lu_factor.count"]),
            "solvers.lu_factor.s": get(total, "solvers.lu_factor"),
            "solvers.linear_solve.calls": get(calls, "solvers.linear_solve"),
            "solvers.linear_solve.s": get(total, "solvers.linear_solve"),
            "solvers.gmres.iters": float(self.counts["solvers.gmres.iters"]),
            "solvers.gmres.lu_fallbacks":
                float(self.counts["solvers.gmres.lu_fallbacks"]),
            "fluxes.high_order.calls": get(calls, "fluxes.high_order"),
            "fluxes.high_order.self_s": get(self_time, "fluxes.high_order"),
            "weno.face_values.calls": get(calls, "weno.face_values"),
            "weno.face_values.s": get(total, "weno.face_values"),
            "fluxes.low_order.calls": get(calls, "fluxes.low_order"),
            "fluxes.low_order.self_s": get(self_time, "fluxes.low_order"),
            "fluxes.faceflux.constructions":
                float(self.counts["fluxes.faceflux.constructions"]),
            "mesh.ghost_fill.calls": get(calls, "mesh.ghost_fill"),
            "mesh.ghost_fill.s": get(total, "mesh.ghost_fill"),
            "time_integration.dirk_step.self_s":
                get(self_time, "time_integration.dirk_step"),
            "time_integration.iex_step.self_s":
                get(self_time, "time_integration.iex_step"),
            "harness.steps": float(len(step_ms)),
            "harness.step_ms_p50":
                float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0,
            "harness.step_ms_p90":
                float(np.percentile(step_ms, 90)) if len(step_ms) else 0.0,
            "metrics.s": get(total, "metrics"),
            "trace.attributed_frac":
                1.0 - unattributed / traced_wall_s if traced_wall_s > 0 else 0.0,
        }
        return out
