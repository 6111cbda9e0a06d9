"""Synthesis result containers: what a :class:`~repro.pipeline.Pipeline`
run returns (:class:`SynthesisResult`) and the baseline/power-managed
pair :func:`~repro.pipeline.run_pair` builds (:class:`SynthesisPair`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pm_pass import PMResult
from repro.power.static import SelectModel, StaticPowerReport, static_power
from repro.power.weights import PowerWeights
from repro.rtl.design import SynthesizedDesign
from repro.sched.schedule import Schedule


@dataclass
class SynthesisResult:
    """Everything produced for one circuit at one step budget.

    ``pipelined_gating`` carries the overlap analysis of a pipelined run
    (see :mod:`repro.core.pipelined_gating`); ``None`` when the schedule
    has no initiation interval below its length.
    """

    design: SynthesizedDesign
    pm: PMResult
    schedule: Schedule
    pipelined_gating: "object | None" = None

    @property
    def allocation(self):
        return self.schedule.resource_usage()

    def static_report(self, weights: PowerWeights | None = None,
                      selects: SelectModel | None = None) -> StaticPowerReport:
        return static_power(
            self.pm,
            weights=weights if weights is not None else PowerWeights(),
            selects=selects if selects is not None else SelectModel())

    def simulated_report(self, n_vectors: int = 256, seed: int = 1996,
                         weights: PowerWeights | None = None,
                         rel_tol: float | None = None):
        """Simulated per-sample energy of the design; ``rel_tol``
        switches to Monte Carlo estimation (see
        :func:`repro.power.simulated.measure_power`)."""
        from repro.power.simulated import measure_power

        return measure_power(
            self.design, n_vectors=n_vectors, seed=seed, weights=weights,
            power_management=self.design.is_power_managed, rel_tol=rel_tol)


@dataclass
class SynthesisPair:
    """Power-managed design plus its traditional baseline."""

    baseline: SynthesisResult
    managed: SynthesisResult

    @property
    def area_increase(self) -> float:
        """Table II column 4: extra execution-unit area needed by PM."""
        orig = self.baseline.design.area().total
        new = self.managed.design.area().total
        return new / orig if orig else 0.0
