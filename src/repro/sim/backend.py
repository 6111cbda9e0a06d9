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
* ``"auto"`` — compiled for calls of at most
  :data:`COMPILED_MAX_VECTORS` vectors, vectorized above; see
  :func:`create_engine`.

A caller that compares outputs only (the pipeline's verify stage) asks
for ``activity=False`` and gets the compiled engine's outputs-only
program: no activity counters, cheaper to compile, and cached apart
from the design's power runner.

Every engine handed out carries ``chosen_backend`` (the engine actually
constructed: ``auto`` resolves to one of the two) and
``backend_reason`` (why: for ``auto``, the rule that fired).  ``auto``
decisions are logged on the ``repro.sim.backend`` logger at DEBUG level.

:func:`create_engine` is the single construction point the power
estimator, the pipeline's verify stage and ``explore()`` go through.
"""

from __future__ import annotations

import logging

from repro.rtl.design import SynthesizedDesign
from repro.sim.engine import CompiledEngine

BACKENDS = ("compiled", "vectorized", "auto")

# Widest design the vectorized backend accepts: intermediate products
# need 2*width bits inside int64 plus sign headroom.
VECTOR_WIDTH_LIMIT = 62

#: Largest per-call vector count ``auto`` simulates on the compiled
#: engine.  Below every cold crossover measured in ``BENCH_sim.json``
#: (about 300 vectors on the largest plan), and above every small count
#: a caller uses: 64-vector Monte Carlo blocks, the 128-vector
#: ``sim_power`` objective and the 256-vector defaults.  (The 16-vector
#: verify check builds the outputs-only program whatever its count.)
COMPILED_MAX_VECTORS = 256

logger = logging.getLogger("repro.sim.backend")


def numpy_available() -> bool:
    """True when the vectorized backend's only dependency is importable."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a declared dep
        return False
    return True


def _auto(width: int, n_vectors: int | None) -> tuple[str, str]:
    """The backend ``auto`` picks for one engine call, and why."""
    if not numpy_available():
        return "compiled", "auto: numpy unavailable"
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
                  backend: str = "auto", n_vectors: int | None = None,
                  activity: bool = True):
    """Build the batch engine ``backend`` names for ``design``.

    Anything but ``"auto"`` builds itself.  ``n_vectors`` is how many
    vectors the caller simulates per engine call.  ``"auto"`` builds the
    compiled engine when NumPy is missing, when the design is wider than
    :data:`VECTOR_WIDTH_LIMIT`, or for at most
    :data:`COMPILED_MAX_VECTORS` vectors per call; otherwise, an unknown
    count (``None``) included, the vectorized one.  The choice depends
    on nothing else, so it never varies with what the compile caches
    hold.  The returned engine records it on ``chosen_backend`` and its
    cause on ``backend_reason``.  A compiled engine shares its design's
    runner with engines in the other mode.

    ``activity=False`` builds the compiled engine's outputs-only program
    whatever ``n_vectors`` is (``backend_reason`` ``"outputs only"``);
    its batches report ``activity=None``.  The vectorized backend always
    counts activity, so ``backend="vectorized"`` rejects it.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"choose one of {', '.join(BACKENDS)}")
    reason = "requested"
    if not activity:
        if backend == "vectorized":
            raise ValueError(
                "the vectorized backend always counts activity; build an "
                "outputs-only engine with backend 'compiled' or 'auto'")
        backend, reason = "compiled", "outputs only"
    elif backend == "auto":
        backend, reason = _auto(design.width, n_vectors)
        logger.debug("auto backend for %r: %s -> %s", design.graph.name,
                     reason, backend)
    if backend == "compiled":
        engine = CompiledEngine(design, power_management=power_management,
                                activity=activity)
    else:
        from repro.sim.vectorized import VectorizedEngine

        engine = VectorizedEngine(design, power_management=power_management)
    engine.chosen_backend = backend
    engine.backend_reason = reason
    return engine
