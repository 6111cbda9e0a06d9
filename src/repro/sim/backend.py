"""Simulation backend selection.

Two interchangeable, bit-identical batch engines exist:

* ``"compiled"`` — :class:`~repro.sim.engine.CompiledEngine`, one
  generated straight-line Python program per design, run per vector.
  Cheap to build, any width; the program serves both power-management
  modes and every caller, and activity is counted only when read.
* ``"vectorized"`` — :class:`~repro.sim.vectorized.VectorizedEngine`,
  generated NumPy array programs run per *block*, specialized per mode.
  It runs designs with a closed-form array program: up to the int64
  width headroom, and with no cross-vector recurrence through guarded
  state (it raises :class:`~repro.sim.vectorized.VectorizationError`
  otherwise).  About twice as costly to build, with a fixed NumPy cost
  per call, and 7-30x faster per vector on 4096-vector blocks.
* ``"auto"`` — compiled for calls of at most
  :data:`COMPILED_MAX_VECTORS` vectors, vectorized above; compiled
  whenever the vectorized codegen refuses the design.

:func:`create_engine` is the single construction point the power
estimator, the pipeline's verify stage and ``explore()`` go through.
Every engine it hands out carries ``chosen_backend`` (the engine
actually built) and ``backend_reason`` (why: for ``auto``, the rule that
fired); ``auto`` decisions are logged on this module's logger at DEBUG.
"""

from __future__ import annotations

import logging

from repro.rtl.design import SynthesizedDesign
from repro.sim.engine import VECTOR_WIDTH_LIMIT, CompiledEngine
from repro.sim.vectorized import VectorizationError, VectorizedEngine

BACKENDS = ("compiled", "vectorized", "auto")

#: Largest per-call vector count ``auto`` simulates on the compiled
#: engine.  Below every cold crossover measured in ``BENCH_sim.json``
#: (about 300 vectors on the largest plan), and above every small count
#: a caller uses: 64-vector Monte Carlo blocks, the 128-vector
#: ``sim_power`` objective, the 256-vector defaults and the 16-vector
#: verify check.
COMPILED_MAX_VECTORS = 256

logger = logging.getLogger("repro.sim.backend")


def _auto(width: int, n_vectors: int | None) -> tuple[str, str]:
    """The backend ``auto`` picks for one engine call, and why."""
    if width > VECTOR_WIDTH_LIMIT:
        return "compiled", (f"auto: width {width} exceeds the vectorized "
                            f"limit {VECTOR_WIDTH_LIMIT}")
    if n_vectors is None:
        return "vectorized", "auto: vector count unknown"
    if n_vectors <= COMPILED_MAX_VECTORS:
        return "compiled", (f"auto: {n_vectors} vectors per call "
                            f"<= {COMPILED_MAX_VECTORS}")
    return "vectorized", (f"auto: {n_vectors} vectors per call "
                          f"> {COMPILED_MAX_VECTORS}")


def create_engine(design: SynthesizedDesign, power_management: bool = True,
                  backend: str = "auto", n_vectors: int | None = None):
    """Build the batch engine ``backend`` names for ``design``.

    ``n_vectors`` is how many vectors the caller simulates per engine
    call (negative: ``ValueError``).  ``"auto"`` builds the compiled
    engine when the design is wider than :data:`VECTOR_WIDTH_LIMIT` or
    for at most :data:`COMPILED_MAX_VECTORS` vectors per call, else (an
    unknown count included) the vectorized one.  When the vectorized
    codegen refuses the design (a cross-vector recurrence through
    guarded state), ``"auto"`` builds the compiled engine and gives the
    refusal as the reason; the refusal is cached like a runner, so its
    codegen runs once.  The engine records the choice on
    ``chosen_backend``, the cause on ``backend_reason``.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"choose one of {', '.join(BACKENDS)}")
    if n_vectors is not None and n_vectors < 0:
        raise ValueError(f"n_vectors must be at least 0, got {n_vectors}")
    requested, reason = backend, "requested"
    if backend == "auto":
        backend, reason = _auto(design.width, n_vectors)
    if backend == "vectorized":
        try:
            engine = VectorizedEngine(design,
                                      power_management=power_management)
        except VectorizationError as error:
            if requested != "auto":
                raise
            backend, reason = "compiled", f"auto: {error}"
    if backend == "compiled":
        engine = CompiledEngine(design, power_management=power_management)
    if requested == "auto":
        logger.debug("auto backend for %r: %s -> %s", design.graph.name,
                     reason, backend)
    engine.chosen_backend = backend
    engine.backend_reason = reason
    return engine
