"""Simulation-based power estimation (paper Table III).

The paper synthesized both designs to gates and measured them with
Synopsys DesignPower.  Our stand-in: run the cycle-accurate simulation on
random input vectors for the original and power-managed designs and
convert switching activity into weighted energy:

* execution units: ``class weight x toggled-bit fraction`` per activation
  (a shut-down unit sees zero toggles and is charged nothing);
* registers: a per-toggled-bit charge;
* controller: a per-literal-per-cycle charge, so the power-managed
  controller — which the paper notes is "slightly more complex" — eats
  part of the datapath savings exactly as Table III shows.

Simulation runs on a batch engine selected by ``backend=`` — by
default (``"auto"``) the :class:`~repro.sim.engine.CompiledEngine` for
small engine calls and the vectorized NumPy backend for large ones (see
:func:`repro.sim.backend.create_engine`); both are bit-identical to the
interpreted :class:`~repro.sim.simulator.RTLSimulator` oracle, so every
estimate below is backend-independent at a fixed seed.  Two estimation
modes:

* fixed-sample (``vectors``/``n_vectors``): one batch, exact legacy
  numbers — what the golden Table III regression pins;
* Monte Carlo (``rel_tol=...``): draw vector blocks from a stream until
  the per-sample energy estimate's confidence interval is tighter than
  ``rel_tol`` of the mean, and report the CI achieved.  On the
  vectorized backend every block is materialized as a pre-generated
  ``(block, n_inputs)`` array before simulation, so the hot loop is
  array code end to end.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from repro.ir.ops import ResourceClass
from repro.power.weights import PowerWeights
from repro.rtl.design import SynthesizedDesign
from repro.sim.activity import ActivityCounter
from repro.sim.backend import create_engine
from repro.sim.vectors import (
    iter_random_vectors,
    random_vectors,
    vectors_to_array,
)

# Energy per toggled register bit, relative to the paper's unit weights.
REGISTER_BIT_ENERGY = 0.10
# Energy per controller literal per cycle.
CONTROLLER_LITERAL_ENERGY = 0.012


@dataclass(frozen=True)
class SimulatedPower:
    """Average energy per processed sample, by component.

    ``chosen_backend`` records which simulation engine actually produced
    the numbers (``"compiled"`` or ``"vectorized"``, also for ``auto``
    requests).  It is observability metadata, excluded from equality:
    reports from different backends at the same seed stay equal, which
    is exactly the bit-identity guarantee the parity tests pin down."""

    fu_energy: dict[ResourceClass, float]
    register_energy: float
    controller_energy: float
    samples: int
    chosen_backend: str | None = field(default=None, compare=False)

    @property
    def datapath(self) -> float:
        return sum(self.fu_energy.values()) + self.register_energy

    @property
    def total(self) -> float:
        return self.datapath + self.controller_energy


@dataclass(frozen=True)
class MonteCarloPower(SimulatedPower):
    """A :class:`SimulatedPower` with its convergence diagnostics.

    ``ci_halfwidth`` is the half-width of the ``confidence`` interval on
    the per-sample total energy, estimated over the means of the
    ``blocks`` full-size blocks, using a Student-t quantile (partial
    trailing blocks of a finite stream feed the estimate but not the
    statistics) — ``math.inf`` when fewer than the minimum four full
    blocks ran, so no interval was computed;
    ``converged`` is False when ``max_vectors`` was hit (or the vector
    stream ran dry) before the requested ``rel_tol`` was reached.
    """

    rel_tol: float = 0.0
    confidence: float = 0.95
    ci_halfwidth: float = 0.0
    blocks: int = 0
    converged: bool = True

    @property
    def rel_ci(self) -> float:
        """CI half-width as a fraction of the total energy estimate."""
        return self.ci_halfwidth / abs(self.total) if self.total else 0.0


# Full blocks required before the Monte Carlo loop may declare
# convergence; below this the CI on the block means is meaningless.
_MIN_BLOCKS = 4


def _t_quantile(p: float, df: int) -> float:
    """Student-t quantile via the Cornish-Fisher expansion around the
    normal quantile — accurate to <1% for ``df >= 3``, the smallest the
    estimator ever uses (``_MIN_BLOCKS - 1``).  Using the normal z here
    would be badly anti-conservative at small block counts."""
    z = statistics.NormalDist().inv_cdf(p)
    g1 = (z ** 3 + z) / 4.0
    g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96.0
    g3 = (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / 384.0
    return z + g1 / df + g2 / df ** 2 + g3 / df ** 3


def _power_from_activity(activity: ActivityCounter, samples: int,
                         width: int, weights: PowerWeights,
                         ) -> tuple[dict[ResourceClass, float], float, float]:
    """Component energies per sample from merged switching activity."""
    fu_energy: dict[ResourceClass, float] = {}
    for cls, toggles in activity.fu_input_toggles.items():
        out = activity.fu_output_toggles.get(cls, 0)
        # Toggled fraction of the unit's 3 datapath-width interfaces.
        activity_factor = (toggles + out) / (3.0 * width)
        fu_energy[cls] = weights.of(cls) * activity_factor / samples
    register_energy = REGISTER_BIT_ENERGY * activity.register_toggles / samples
    controller_energy = (
        CONTROLLER_LITERAL_ENERGY * activity.controller_literals / samples
    )
    return fu_energy, register_energy, controller_energy


def _run_block(engine, block) -> object:
    """Run one vector block on ``engine`` the fastest way it supports.

    Lists of vector dicts go to the vectorized backend as one input
    matrix; ``(batch, n_inputs)`` arrays go to the compiled backend as
    reconstructed dicts (slow path, for API symmetry).
    """
    run_array = getattr(engine, "run_array", None)
    if isinstance(block, list):
        if run_array is not None:
            return run_array(vectors_to_array(block, engine.input_names))
        return engine.run_batch(block)
    if run_array is not None:
        return run_array(block)
    import numpy as np

    if not np.issubdtype(np.asarray(block).dtype, np.integer):
        raise TypeError(
            f"input matrix must have an integer dtype, "
            f"got {np.asarray(block).dtype}")
    names = engine.input_names
    if block.ndim != 2 or block.shape[1] != len(names):
        raise ValueError(
            f"expected a (batch, {len(names)}) input matrix, "
            f"got shape {block.shape}")
    return engine.run_batch([dict(zip(names, row))
                             for row in block.tolist()])


def measure_power(
    design: SynthesizedDesign,
    vectors: Iterable[dict[str, int]] | None = None,
    n_vectors: int = 256,
    seed: int = 1996,
    power_management: bool = True,
    weights: PowerWeights | None = None,
    rel_tol: float | None = None,
    confidence: float = 0.95,
    block_size: int = 64,
    max_vectors: int = 1 << 16,
    backend: str = "auto",
) -> SimulatedPower:
    """Average per-sample energy of ``design``.

    Fixed mode (``rel_tol=None``): simulate ``vectors`` (or ``n_vectors``
    seeded random ones) in one batch; an empty set raises
    ``ValueError``.  Monte Carlo mode (``rel_tol`` set): draw
    ``block_size`` vectors at a time — from ``vectors`` if
    given (any iterable of dicts or a pre-generated ``(n, n_inputs)``
    input matrix), else from an endless seeded random stream — until the
    ``confidence`` interval of the per-sample energy is within
    ``rel_tol`` of the mean or ``max_vectors`` have been simulated;
    returns :class:`MonteCarloPower`.

    ``backend`` selects the batch engine (``"compiled"``,
    ``"vectorized"`` or ``"auto"``, see :func:`repro.sim.create_engine`).
    ``auto`` decides by the vectors per engine call: the whole batch in
    fixed mode, ``block_size`` in Monte Carlo mode.  The backends are
    bit-identical, so reports are byte-equal across them at the same
    seed.  Every call builds a cold-state engine, which reproduces the
    legacy simulator's numbers exactly.
    """
    weights = weights if weights is not None else PowerWeights()
    if rel_tol is not None and rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    is_matrix = vectors is not None and hasattr(vectors, "ndim")
    if rel_tol is None:
        if vectors is None:
            vectors = random_vectors(design.graph, n_vectors,
                                     width=design.width, seed=seed)
        elif not is_matrix:
            vectors = list(vectors)
        per_call = len(vectors)
        if per_call == 0:
            raise ValueError(
                f"fixed-sample power needs at least one vector, "
                f"got {per_call}")
    else:
        per_call = block_size
    engine = create_engine(design, power_management=power_management,
                           backend=backend, n_vectors=per_call)
    if rel_tol is None:
        batch = _run_block(engine, vectors)
        fu, reg, ctrl = _power_from_activity(
            batch.activity, batch.samples, design.width, weights)
        return SimulatedPower(fu_energy=fu, register_energy=reg,
                              controller_energy=ctrl, samples=batch.samples,
                              chosen_backend=engine.chosen_backend)

    if is_matrix:
        matrix, offset = vectors, 0
        stream = None
    else:
        stream = iter(vectors) if vectors is not None \
            else iter_random_vectors(design.graph, None, width=design.width,
                                     seed=seed)
    total = ActivityCounter(width=design.width)
    block_means: list[float] = []
    samples = 0
    halfwidth = math.inf
    converged = False
    while samples < max_vectors:
        # max_vectors is a hard simulation budget: clamp the last block.
        take = min(block_size, max_vectors - samples)
        if stream is None:
            block = matrix[offset:offset + take]
            offset += block.shape[0]
            if block.shape[0] == 0:
                break  # finite matrix ran dry
        else:
            block = list(islice(stream, take))
            if not block:
                break  # finite stream ran dry
        result = _run_block(engine, block)
        total.merge(result.activity)
        samples += result.samples
        if result.samples == block_size:
            # Partial trailing blocks (finite stream ran short) still
            # count toward the energy estimate but are excluded from the
            # batch-means statistics: weighting a short block equally
            # would bias the mean and SEM the CI is computed from.
            fu, reg, ctrl = _power_from_activity(
                result.activity, result.samples, design.width, weights)
            block_means.append(sum(fu.values()) + reg + ctrl)
        if len(block_means) >= _MIN_BLOCKS:
            mean = statistics.fmean(block_means)
            sem = statistics.stdev(block_means) / math.sqrt(len(block_means))
            halfwidth = sem * _t_quantile(0.5 + confidence / 2.0,
                                          len(block_means) - 1)
            if halfwidth <= rel_tol * abs(mean):
                converged = True
                break
    if samples == 0:
        raise ValueError("vector stream produced no vectors")
    fu, reg, ctrl = _power_from_activity(total, samples, design.width,
                                         weights)
    return MonteCarloPower(
        fu_energy=fu, register_energy=reg, controller_energy=ctrl,
        samples=samples, chosen_backend=engine.chosen_backend,
        rel_tol=rel_tol, confidence=confidence,
        ci_halfwidth=halfwidth, blocks=len(block_means),
        converged=converged)


@dataclass(frozen=True)
class PowerComparison:
    """Table III row: original vs power-managed design."""

    orig: SimulatedPower
    managed: SimulatedPower
    area_orig: int
    area_new: int

    @property
    def area_increase(self) -> float:
        return self.area_new / self.area_orig if self.area_orig else 0.0

    @property
    def reduction_pct(self) -> float:
        if self.orig.total == 0:
            return 0.0
        return 100.0 * (self.orig.total - self.managed.total) / self.orig.total

    @property
    def datapath_reduction_pct(self) -> float:
        if self.orig.datapath == 0:
            return 0.0
        return 100.0 * (self.orig.datapath - self.managed.datapath) \
            / self.orig.datapath


def compare_designs(
    orig: SynthesizedDesign,
    managed: SynthesizedDesign,
    n_vectors: int = 256,
    seed: int = 1996,
    weights: PowerWeights | None = None,
    backend: str = "auto",
) -> PowerComparison:
    """Simulate both designs on the *same* vector set and compare.

    ``auto`` decides by the vector count and the width alone, so designs
    of one width, such as a baseline/managed pair, get the same
    ``chosen_backend``.
    """
    weights = weights if weights is not None else PowerWeights()
    vectors = random_vectors(orig.graph, n_vectors, width=orig.width,
                             seed=seed)
    power_orig = measure_power(orig, vectors=vectors, power_management=False,
                               weights=weights, backend=backend)
    power_new = measure_power(managed, vectors=vectors, power_management=True,
                              weights=weights, backend=backend)
    return PowerComparison(
        orig=power_orig,
        managed=power_new,
        area_orig=orig.area().total,
        area_new=managed.area().total,
    )
