"""The interpreter's hardware state, named as the compiled engine's."""

from repro.sim.engine import compile_plan
from repro.sim.simulator import RTLSimulator


def interpreter_state(sim: RTLSimulator) -> dict[str, int]:
    """``sim``'s registers, latches and FU outputs, named as
    :meth:`~repro.sim.engine.CompiledEngine.state` names them."""
    plan = compile_plan(sim.design)
    units = {unit: i for i, unit in enumerate(sim.design.binding.units)}
    state = {f"r{index}": sim._registers[index] for index in plan.registers}
    state.update({f"l{u}_{p}": 0 for u, p in plan.latch_ports})
    state.update({f"fo{u}": 0 for u in range(plan.n_units)})
    for (unit, port), value in sim._fu_inputs.items():
        state[f"l{units[unit]}_{port}"] = value
    for unit, value in sim._fu_outputs.items():
        state[f"fo{units[unit]}"] = value
    return state
