"""Simulation backend selection.

Two interchangeable, bit-identical batch engines exist:

* ``"compiled"`` — :class:`~repro.sim.engine.CompiledEngine`, generated
  straight-line Python executed per vector.  No dependencies; cheap to
  build, the fallback everywhere.  One runner per design fingerprint
  serves both power-management modes (the mode is a call argument).
* ``"vectorized"`` — :class:`~repro.sim.vectorized.VectorizedEngine`,
  generated NumPy array programs executed per *block*, with a hybrid
  scalar micro-loop covering recurrent guarded state.  Total over valid
  designs up to the int64 width headroom; needs ``numpy``.  About twice
  as costly to build as the compiled engine, with a fixed NumPy
  dispatch cost per call, and 8-30x faster per vector on 4096-vector
  blocks.  Its runners stay specialized per mode.
* ``"auto"`` — a cost model (:data:`COST_MODEL`) weighs the two for the
  number of vectors the caller is about to simulate; see
  :func:`resolve_backend`.

Every engine handed out carries ``chosen_backend`` (the engine actually
constructed: ``auto`` resolves to one of the two) and
``backend_reason`` (why: the vector count and both cost estimates for
``auto``).  ``auto`` decisions are logged on the ``repro.sim.backend``
logger at DEBUG level.

:func:`create_engine` is the single construction point the power
estimator, the pipeline's verify stage and ``explore()`` go through.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable

from repro.rtl.design import SynthesizedDesign
from repro.sim.engine import (
    _RUNNER_CACHE,
    CompiledEngine,
    ExecutionPlan,
    cached_plan,
    design_fingerprint,
)

BACKENDS = ("compiled", "vectorized", "auto")

# Widest design the vectorized backend accepts: intermediate products
# need 2*width bits inside int64 plus sign headroom.
VECTOR_WIDTH_LIMIT = 62

logger = logging.getLogger("repro.sim.backend")

#: Backends the ``auto`` cost model chooses between.
MODELED_BACKENDS = ("compiled", "vectorized")

#: The ``auto`` cost model, in milliseconds.  Per backend, three terms,
#: each ``(intercept, slope)`` in the design's :func:`plan_ops`:
#: ``build`` is a cold engine build (plan, code generation and
#: ``compile()``; zero when the runner is already cached), ``call`` the
#: fixed cost of one engine call and ``vector`` the cost per simulated
#: vector.  Fitted by :func:`fit_cost_model` to the committed
#: ``BENCH_sim.json`` rows (16, 128 and 4096 vectors per circuit);
#: regenerate both with ``python benchmarks/bench_sim.py``.
COST_MODEL: dict[str, dict[str, tuple[float, float]]] = {
    "compiled": {"build": (0.2402, 0.1682),
                 "call": (0.01689, -0.0008498),
                 "vector": (0.000219, 0.0003344)},
    "vectorized": {"build": (0.969, 0.324),
                   "call": (0.015, 0.02151),
                   "vector": (0.0002275, 1.296e-05)},
}


def numpy_available() -> bool:
    """True when the vectorized backend's only dependency is importable."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a declared dep
        return False
    return True


def plan_ops(plan: ExecutionPlan) -> int:
    """Operations the plan executes per vector: the cost model's size."""
    return sum(len(step.starts) for step in plan.steps)


def estimate_ms(backend: str, ops: int, n_vectors: int, calls: int = 1,
                cached: bool = False) -> float:
    """Modelled milliseconds to build (unless ``cached``) one ``backend``
    engine for a plan of ``ops`` operations and run ``n_vectors``
    through it in ``calls`` engine calls."""
    terms = COST_MODEL[backend]

    def term(name: str) -> float:
        intercept, slope = terms[name]
        return intercept + slope * ops

    build = 0.0 if cached else term("build")
    return build + calls * term("call") + n_vectors * term("vector")


def _runner_key(backend: str, design: SynthesizedDesign,
                power_management: bool):
    """Compile-cache key of ``backend``'s runner for ``design``: a
    compiled runner serves both modes, a vectorized one only its own."""
    if backend == "compiled":
        return design_fingerprint(design)
    return design_fingerprint(design), power_management


def _runner_cached(backend: str, key) -> bool:
    if backend == "compiled":
        return key in _RUNNER_CACHE
    from repro.sim.vectorized import _VECTOR_CACHE

    return key in _VECTOR_CACHE


def resolve_backend(designs: Iterable[tuple[SynthesizedDesign, bool]],
                    backend: str = "auto", n_vectors: int | None = None,
                    block_size: int | None = None) -> tuple[str, str]:
    """The backend to build for ``designs``, and why.

    ``designs`` are ``(design, power_management)`` engines that will all
    simulate the same ``n_vectors``, ``block_size`` at a time (``None``:
    in one call).  Resolving a set at once gives every engine of, say, a
    baseline/managed pair the same backend.  Anything but ``"auto"``
    resolves to itself.  ``"auto"`` is compiled when NumPy is missing or
    a design is wider than :data:`VECTOR_WIDTH_LIMIT`, vectorized when
    the count is unknown (``None``), and otherwise whichever of the
    compiled and vectorized backends has the lower :func:`estimate_ms`
    summed over ``designs``.  A runner already in the compile cache
    costs nothing to build, and a compiled runner is charged once per
    distinct design, because both modes share it.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"choose one of {', '.join(BACKENDS)}")
    if backend != "auto":
        return backend, "requested"
    designs = tuple(designs)
    chosen, reason = _auto(designs, n_vectors, block_size)
    logger.debug("auto backend for %s: %s -> %s",
                 ", ".join(repr(design.graph.name) for design, _pm in designs),
                 reason, chosen)
    return chosen, reason


def _auto(designs: tuple[tuple[SynthesizedDesign, bool], ...],
          n_vectors: int | None,
          block_size: int | None) -> tuple[str, str]:
    width = max(design.width for design, _pm in designs)
    if not numpy_available():
        return "compiled", "auto: numpy unavailable"
    if width > VECTOR_WIDTH_LIMIT:
        return "compiled", (f"auto: width {width} exceeds the vectorized "
                            f"limit {VECTOR_WIDTH_LIMIT}")
    if n_vectors is None:
        return "vectorized", "auto: vector count unknown"
    calls = max(1, math.ceil(n_vectors / block_size)) if block_size else 1
    costs = dict.fromkeys(MODELED_BACKENDS, 0.0)
    charged: set[tuple[str, object]] = set()
    for design, pm in designs:
        ops = plan_ops(cached_plan(design))
        for name in MODELED_BACKENDS:
            key = _runner_key(name, design, pm)
            costs[name] += estimate_ms(
                name, ops, n_vectors, calls,
                cached=(name, key) in charged or _runner_cached(name, key))
            charged.add((name, key))
    estimates = ", ".join(f"{name} {costs[name]:.2f} ms"
                          for name in MODELED_BACKENDS)
    return (min(MODELED_BACKENDS, key=costs.__getitem__),
            f"auto: {n_vectors} vectors, est. {estimates}")


def _tag(engine, chosen: str, reason: str):
    engine.chosen_backend = chosen
    engine.backend_reason = reason
    return engine


def create_engine(design: SynthesizedDesign, power_management: bool = True,
                  backend: str = "auto", n_vectors: int | None = None, *,
                  block_size: int | None = None,
                  reason: str | None = None):
    """Build the batch engine ``backend`` names for ``design``.

    ``n_vectors`` is how many vectors the caller is about to simulate
    (``block_size`` per call, if not all at once); ``"auto"`` resolves
    through the cost model with it (see :func:`resolve_backend`).  The
    returned engine records the resolution on ``chosen_backend`` and its
    cause on ``backend_reason``; a caller that resolved ``auto`` itself
    passes the concrete backend plus its ``reason``.  A compiled engine
    shares its design's runner with engines in the other mode.
    """
    chosen, why = resolve_backend(((design, power_management),), backend,
                                  n_vectors, block_size)
    why = reason or why
    if chosen == "compiled":
        return _tag(CompiledEngine(design, power_management=power_management),
                    "compiled", why)
    from repro.sim.vectorized import VectorizedEngine

    return _tag(VectorizedEngine(design, power_management=power_management),
                "vectorized", why)


def fit_cost_model(report: dict) -> dict[str, dict[str, tuple[float, float]]]:
    """Fit :data:`COST_MODEL` to a ``BENCH_sim.json`` report.

    Each compiled or vectorized row gives one cold build time
    (``build_s``) and one single-call run of ``n_vectors`` vectors
    (``seconds``) on a circuit of ``plan_ops`` operations.  Both fits are
    least squares on relative error, so millisecond rows weigh as much
    as second-long ones.  Coefficients are rounded to four significant
    digits, as committed.
    """
    import numpy as np

    def lstsq(features: list[list[float]], targets: list[float]):
        x = np.array(features, dtype=float)
        y = np.array(targets, dtype=float)
        weight = 1.0 / y
        return np.linalg.lstsq(x * weight[:, None], y * weight,
                               rcond=None)[0]

    def sig4(value: float) -> float:
        return float(f"{value:.4g}")

    model = {}
    for backend in MODELED_BACKENDS:
        builds: tuple[list, list] = ([], [])
        runs: tuple[list, list] = ([], [])
        for result in report["results"]:
            ops = result["plan_ops"]
            for row in result["rows"]:
                if row["backend"] != backend:
                    continue
                n = row["n_vectors"]
                builds[0].append([1.0, ops])
                builds[1].append(row["build_s"] * 1e3)
                runs[0].append([1.0, ops, n, n * ops])
                runs[1].append(row["seconds"] * 1e3)
        b0, b1 = lstsq(*builds)
        c0, c1, v0, v1 = lstsq(*runs)
        model[backend] = {"build": (sig4(b0), sig4(b1)),
                          "call": (sig4(c0), sig4(c1)),
                          "vector": (sig4(v0), sig4(v1))}
    return model
