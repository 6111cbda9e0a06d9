"""Ablation: multi-cycle multipliers.

The paper assumes one control step per operation.  Real multipliers are
often slower than adders; giving the vender multipliers a 2-step latency
stretches the critical path and changes where the PM slack sits.  The PM
pass, scheduler, binding and simulator all support latency >= 1, so this
bench checks the headline result survives the relaxation.
"""

from __future__ import annotations

from conftest import print_table

from repro.circuits.vender import ACCEPT_THRESHOLD, BALANCE_LIMIT
from repro.ir.builder import GraphBuilder
from repro.pipeline import ArtifactCache, FlowConfig, Pipeline, run_pair
from repro.ir.graph import CDFG
from repro.power import static_power
from repro.sched import critical_path_length
from repro.sim import CompiledEngine, evaluate, random_vectors


def vender_multicycle(mul_latency: int) -> CDFG:
    """The vender benchmark with configurable multiplier latency."""
    b = GraphBuilder(f"vender_mul{mul_latency}")
    coins = b.input("coins")
    credit = b.input("credit")
    price = b.input("price")
    sel = b.input("sel")

    c_two = b.gt(sel, 1, name="c_two")
    p2 = b.mul(price, 2, name="p2")
    p3 = b.mul(price, 3, name="p3")
    for value in (p2, p3):
        b.graph.set_latency(value.nid, mul_latency)
    cost = b.mux(c_two, p2, p3, name="cost")
    funds = b.add(coins, credit, name="funds")
    c_pay = b.gt(funds, ACCEPT_THRESHOLD, name="c_pay")
    change = b.sub(funds, cost, name="change")
    short = b.sub(cost, funds, name="short")
    amount = b.mux(c_pay, short, change, name="amount")
    vend = b.mux(c_pay, 0, 1, name="vend")
    account = b.mux(c_two, coins, credit, name="account")
    t2 = b.add(funds, sel, name="t2")
    balance = b.add(t2, account, name="balance")
    c_ovf = b.gt(balance, BALANCE_LIMIT, name="c_ovf")
    wrapped = b.sub(balance, BALANCE_LIMIT, name="wrapped")
    newbal = b.mux(c_ovf, balance, wrapped, name="newbal")
    ovf = b.mux(c_ovf, 1, 0, name="ovf")
    b.output(amount, "amount")
    b.output(vend, "vend")
    b.output(newbal, "balance")
    b.output(ovf, "ovf")
    return b.build()


def regenerate_multicycle_ablation():
    rows = []
    pipeline = Pipeline(cache=ArtifactCache())
    for latency in (1, 2, 3):
        graph = vender_multicycle(latency)
        cp = critical_path_length(graph)
        for slack in (1, 2):
            pair = run_pair(graph, FlowConfig(n_steps=cp + slack),
                            pipeline=pipeline)
            report = static_power(pair.managed.pm)
            rows.append({
                "latency": latency,
                "cp": cp,
                "steps": cp + slack,
                "muxes": pair.managed.pm.managed_count,
                "red": report.reduction_pct,
                "graph": graph,
                "pair": pair,
            })
    return rows


def test_bench_ablation_multicycle(benchmark):
    rows = benchmark(regenerate_multicycle_ablation)

    print_table(
        "Multi-cycle multiplier ablation (vender)",
        ["Mul latency", "CritPath", "Steps", "PM muxes", "PowerRed%"],
        [[r["latency"], r["cp"], r["steps"], r["muxes"], r["red"]]
         for r in rows])

    # Critical path stretches with multiplier latency.
    cps = sorted({(r["latency"], r["cp"]) for r in rows})
    assert [cp for _, cp in cps] == sorted(cp for _, cp in cps)
    assert cps[0][1] < cps[-1][1]

    for row in rows:
        # The multipliers stay gated — the big saving survives.
        assert row["red"] > 20.0
        # And the generated hardware still computes the right thing.
        graph = row["graph"]
        vectors = random_vectors(graph, 12, seed=row["latency"])
        engine = CompiledEngine(row["pair"].managed.design)
        outputs, _ = engine.run_many(vectors)
        assert outputs == [evaluate(graph, v) for v in vectors]
