"""Outside-in tracing of one ``mimicsde`` pipeline call.

The tracer wraps the public callables of each package module from outside the
package: a span records (name, start, end, parent) and counters record the
work done at the same boundary.  Because ``cli``, ``pde`` and ``martingale``
bind functions such as ``simulate_sde`` with ``from ... import``, every
binding of a wrapped function in every ``mimicsde`` module is replaced, not
only the defining one.  Spans stay in memory until :meth:`Tracer.metrics`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def rebind(old, new) -> None:
    """Replace every binding of ``old`` in the loaded ``mimicsde`` modules by ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "mimicsde" or name.startswith("mimicsde."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


class Tracer:
    """In-memory span and counter store; ``wrap`` makes a traced callable."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.masked_fractions: list[float] = []

    def wrap(self, name: str, fn, count=None):
        """Traced ``fn``; ``count(tracer, args, kwargs, result)`` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name."""
        inclusive: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return inclusive, self_s

    def metrics(self) -> dict:
        """Per-layer figures named as in ``BENCHMARK.json``."""
        inc, own, c = *self.times(), self.counts
        masked = self.masked_fractions
        return {
            "rng.normals.self_s": own["rng.normals"],
            "rng.normals.calls": c["rng.normals.calls"],
            "rng.normals.draws": c["rng.normals.draws"],
            "rng.uniforms.self_s": own["rng.uniforms"],
            "rng.uniforms.draws": c["rng.uniforms.draws"],
            "coeffs.varsigma.self_s": own["coeffs.varsigma"],
            "coeffs.varsigma.rows": c["coeffs.varsigma.rows"],
            "coeffs.eval_analytic.self_s": own["coeffs.eval_analytic"],
            "coeffs.eval_analytic.points": c["coeffs.eval_analytic.points"],
            "coeffs.eval_gridded.self_s": own["coeffs.eval_gridded"],
            "coeffs.eval_gridded.points": c["coeffs.eval_gridded.points"],
            "coeffs.validate.s": inc["coeffs.validate"],
            "coeffs.load_gridded_model.s": inc["coeffs.load_gridded_model"],
            "sdesim.simulate_sde.self_s": own["sdesim.simulate_sde"],
            "sdesim.simulate_ito_process.self_s": own["sdesim.simulate_ito_process"],
            "sdesim.path_steps": c["sdesim.path_steps"],
            "sdesim.stored_bytes": c["sdesim.stored_bytes"],
            "sdesim.clip_fraction": c["sdesim.clipped_steps"] / max(c["sdesim.path_steps"], 1),
            "sdesim.ensemble_to_csv.s": inc["sdesim.ensemble_to_csv"],
            "projection.estimate.s": inc["projection.estimate"],
            "projection.build.s": inc["projection.build"],
            "projection.save_mimicked.s": inc["projection.save_mimicked"],
            "projection.load_mimicked.s": inc["projection.load_mimicked"],
            "projection.compare_marginals.s": inc["projection.compare_marginals"],
            "projection.masked_fraction": sum(masked) / len(masked) if masked else 0.0,
            "pde.solve.self_s": own["pde.solve"],
            "pde.splu.s": inc["pde.splu"],
            "pde.lu_solve.s": inc["pde.lu_solve"],
            "pde.factorizations": c["pde.factorizations"],
            "pde.march_steps": c["pde.march_steps"],
            "pde.nodes": c["pde.nodes"],
            "martingale.increments.self_s": own["martingale.increments"],
            "martingale.test.s": inc["martingale.test"],
            "cli.overhead_s": own["cli.run"],
            "trace.self_total_s": sum(own.values()),
        }


def _rows(key: str, x_pos: int = 1):
    def count(tr: Tracer, args, kwargs, result) -> None:
        tr.counts[key] += len(args[x_pos])
    return count


def _draws(name: str):
    def count(tr: Tracer, args, kwargs, result) -> None:
        tr.counts[name + ".calls"] += 1
        tr.counts[name + ".draws"] += result.size
    return count


def _ensemble(tr: Tracer, args, kwargs, ens) -> None:
    tr.counts["sdesim.path_steps"] += ens.n_internal_steps
    tr.counts["sdesim.clipped_steps"] += ens.n_clipped_steps
    stored = ens.states.nbytes
    if ens.drivers is not None:
        stored += ens.drivers.beta.nbytes + ens.drivers.xi2.nbytes
    tr.counts["sdesim.stored_bytes"] += stored


def _march(tr: Tracer, args, kwargs, sol) -> None:
    tr.counts["pde.march_steps"] += sol.meta["n_steps"]
    tr.counts["pde.nodes"] = max(tr.counts["pde.nodes"], sol.grid.n_nodes)


class _TracedLU:
    """A ``SuperLU`` factorisation whose ``solve`` is traced."""

    def __init__(self, lu, solve) -> None:
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every ``mimicsde`` layer into ``tracer``."""
    from scipy.sparse import linalg as sp_linalg

    from mimicsde import cli, coeffs, martingale, pde, projection, rng, sdesim

    def traced(fn, name, count=None):
        rebind(fn, tracer.wrap(name, fn, count))

    traced(rng.normals, "rng.normals", _draws("rng.normals"))
    traced(rng.uniforms, "rng.uniforms", _draws("rng.uniforms"))
    model_cls = coeffs.CoefficientModel
    model_cls.varsigma = tracer.wrap("coeffs.varsigma", model_cls.varsigma,
                                     _rows("coeffs.varsigma.rows", 2))
    traced(coeffs.validate_coefficients, "coeffs.validate")
    traced(coeffs.load_gridded_model, "coeffs.load_gridded_model")

    def eval_fields(model, fields, name):
        for f in fields:
            setattr(model, f, tracer.wrap(name, getattr(model, f), _rows(name + ".points")))
        return model

    heston = coeffs.heston_model
    rebind(heston, functools.wraps(heston)(
        lambda *a, **k: eval_fields(heston(*a, **k), "abc", "coeffs.eval_analytic")))

    def built(tr, args, kwargs, model) -> None:
        # building only fills masked cells, so the mask is still the estimate's
        tr.masked_fractions.append(args[0].masked_fraction)
        eval_fields(model, "ab", "coeffs.eval_gridded")

    traced(projection.build_mimicking_model, "projection.build", built)

    traced(sdesim.simulate_sde, "sdesim.simulate_sde", _ensemble)
    traced(sdesim.simulate_ito_process, "sdesim.simulate_ito_process", _ensemble)
    traced(sdesim.ensemble_to_csv, "sdesim.ensemble_to_csv")
    traced(projection.estimate_mimicking_coefficients, "projection.estimate")
    traced(projection.save_mimicked, "projection.save_mimicked")
    traced(projection.load_mimicked, "projection.load_mimicked")
    traced(projection.compare_marginals, "projection.compare_marginals")
    traced(pde.solve_cauchy, "pde.solve", _march)
    traced(pde.solve_terminal_value, "pde.solve")

    splu = sp_linalg.splu

    def count_factorization(tr, args, kwargs, lu) -> None:
        tr.counts["pde.factorizations"] += 1

    traced_splu = tracer.wrap("pde.splu", splu, count_factorization)

    @functools.wraps(splu)
    def splu_traced_solve(*args, **kwargs):
        lu = traced_splu(*args, **kwargs)
        return _TracedLU(lu, tracer.wrap("pde.lu_solve", lu.solve))

    sp_linalg.splu = splu_traced_solve

    traced(martingale.martingale_increments, "martingale.increments")
    traced(martingale.martingale_test, "martingale.test")
    traced(cli.run, "cli.run")
