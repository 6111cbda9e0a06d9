"""Golden snapshot of every non-anneal driver's trajectory + regeneration.

``golden/optimizer.json`` pins the annealer; this snapshot pins the
other drivers — ``random``, ``beam`` and the island-model ``portfolio``
(three islands in-process, plus one run capped by ``max_evaluations``)
— on the paper circuits at their Table III budgets and one generated
circuit, and adds multi-objective runs (annealing included) whose
Pareto fronts expose more of each trajectory.  Each run records the
resume-invariant :meth:`~repro.opt.search.OptResult.outcome` plus
the ``evaluations`` / ``reused`` counts, so a refactor of the search
loops that changes a single move, acceptance or evaluation shows up.
When an *intended* trajectory change lands, regenerate with::

    PYTHONPATH=src python tests/opt/update_driver_golden.py

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DRIVER_GOLDEN_PATH = Path(__file__).parent / "golden" / "drivers.json"

#: (circuit, control steps): the paper's Table III synthesis points,
#: plus one generated circuit with enough MUXes for long trajectories.
DRIVER_POINTS = (("dealer", 6), ("gcd", 7), ("vender", 6),
                 ("gen:branchy:8", 12))

#: Multi-term objective for the front runs: the area trade-off across
#: three budgets gives the Pareto archive several points to pin.
FRONT_OBJECTIVE = "gated_weight,area=0.05"

#: Pinned driver runs: name -> (driver, keyword arguments).  Runs named
#: ``*_front`` search ``FRONT_OBJECTIVE`` over budgets steps..steps+2;
#: the others search ``gated_weight`` at the point's budget.
DRIVER_RUNS = {
    "random": ("random", dict(iters=40, seed=7)),
    "beam": ("beam", dict(beam_width=3, seed=7)),
    "portfolio": ("portfolio", dict(iters=30, seed=5, islands=3,
                                    workers=1, migration_every=10)),
    "portfolio_capped": ("portfolio", dict(iters=None, seed=5, islands=3,
                                           workers=1, migration_every=10,
                                           max_evaluations=9)),
    "anneal_front": ("anneal", dict(iters=30, restarts=3, seed=11)),
    "random_front": ("random", dict(iters=20, seed=11)),
    "portfolio_front": ("portfolio", dict(iters=12, seed=11, islands=3,
                                          workers=1, migration_every=5)),
}


def generate_driver_snapshot() -> dict[str, object]:
    """``{"<run>/<circuit>@<steps>": {outcome, evaluations, reused}}``."""
    from repro.circuits import build
    from repro.opt import optimize

    runs: dict[str, object] = {}
    for circuit, steps in DRIVER_POINTS:
        graph = build(circuit)
        for name, (driver, kwargs) in DRIVER_RUNS.items():
            if name.endswith("_front"):
                kwargs = dict(kwargs, objective=FRONT_OBJECTIVE,
                              budgets=(steps, steps + 1, steps + 2))
            else:
                kwargs = dict(kwargs, n_steps=steps)
            result = optimize(graph, driver, **kwargs)
            runs[f"{name}/{circuit}@{steps}"] = {
                "outcome": result.outcome(),
                "evaluations": result.evaluations,
                "reused": result.reused,
            }
    return {"runs": runs}


def main() -> int:
    DRIVER_GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = generate_driver_snapshot()
    DRIVER_GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DRIVER_GOLDEN_PATH} ({len(payload['runs'])} runs)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
