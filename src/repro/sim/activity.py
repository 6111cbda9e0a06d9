"""Switching-activity accounting for the RTL simulator.

Dynamic power in CMOS is charged per toggled bit.  The counter tracks, per
execution-unit class: operand-latch toggles, output toggles and the number
of activations; plus register-file write toggles and controller cycles.
The power model (``repro.power.simulated``) converts these into weighted
energy the same way DesignPower converts gate toggles into mW.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ops import ResourceClass


def hamming(a: int, b: int, width: int) -> int:
    """Toggled bits between two ``width``-bit two's complement values."""
    mask = (1 << width) - 1
    return ((a ^ b) & mask).bit_count()


@dataclass
class ActivityCounter:
    """Accumulated switching activity of one simulation run."""

    width: int = 8
    fu_input_toggles: dict[ResourceClass, int] = field(default_factory=dict)
    fu_output_toggles: dict[ResourceClass, int] = field(default_factory=dict)
    fu_activations: dict[ResourceClass, int] = field(default_factory=dict)
    fu_idles: dict[ResourceClass, int] = field(default_factory=dict)
    register_toggles: int = 0
    controller_cycles: int = 0
    controller_literals: int = 0

    def record_idle(self, cls: ResourceClass) -> None:
        """A scheduled op whose latches stayed disabled (shut down)."""
        self.fu_idles[cls] = self.fu_idles.get(cls, 0) + 1

    def record_register_write(self, toggles: int) -> None:
        self.register_toggles += toggles

    def record_controller_cycle(self, literals: int) -> None:
        self.controller_cycles += 1
        self.controller_literals += literals

    def total_activations(self) -> int:
        return sum(self.fu_activations.values())

    def total_idles(self) -> int:
        return sum(self.fu_idles.values())

    def merge(self, other: "ActivityCounter") -> None:
        """Accumulate another run's counts into this one."""
        for src, dst in (
            (other.fu_input_toggles, self.fu_input_toggles),
            (other.fu_output_toggles, self.fu_output_toggles),
            (other.fu_activations, self.fu_activations),
            (other.fu_idles, self.fu_idles),
        ):
            for cls, n in src.items():
                dst[cls] = dst.get(cls, 0) + n
        self.register_toggles += other.register_toggles
        self.controller_cycles += other.controller_cycles
        self.controller_literals += other.controller_literals
