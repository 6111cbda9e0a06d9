"""Additional circuits beyond the paper's four benchmarks.

* :func:`ewf` — the fifth-order elliptic wave filter (Kung/HYPER-era HLS
  benchmark): 26 additions and 8 multiplications, *no conditionals*.  A
  large negative control: the PM pass must select nothing, and the rest of
  the flow must still schedule/bind/simulate it correctly.

* :func:`sparse_fir` — an n-tap FIR whose per-tap multiplies are skipped
  when the sample magnitude is below a threshold (a common DSP power
  optimization).  Parameterized PM workload: n comparisons gate n
  multiplier/adder pairs, so managed muxes and savings scale with n.

* :func:`gated_recurrence` — the 14-node circuit Hypothesis found
  (``test_batch_boundaries_do_not_matter``, seed 0) whose power-managed
  schedule produces an irreducible cross-vector recurrence: a guarded
  register's end-of-step value feeds a *stale* read in the same step, so
  no closed-form column expression exists.  The vectorized backend
  raises ``VectorizationError`` on it, and ``create_engine(backend=
  "auto")`` builds the compiled engine instead.  Kept as a named circuit
  so the regression is deterministic instead of generator-dependent.

* :func:`logic_mixer` — a wide pure-logic benchmark (AND/OR/XOR/NOT/MUX
  only, no arithmetic): a deep, wide dataflow circuit with no carries,
  which ``benchmarks/bench_sim.py`` times next to the paper circuits.
"""

from __future__ import annotations

from repro.ir.builder import GraphBuilder, Value
from repro.ir.graph import CDFG

# Feedback taps of the canonical EWF dataflow are modelled as inputs
# (sv = state variables), as HLS benchmarks traditionally do.


def ewf() -> CDFG:
    """Fifth-order elliptic wave filter body (26 +, 8 *)."""
    b = GraphBuilder("ewf")
    inp = b.input("inp")
    sv2 = b.input("sv2")
    sv13 = b.input("sv13")
    sv18 = b.input("sv18")
    sv26 = b.input("sv26")
    sv33 = b.input("sv33")
    sv38 = b.input("sv38")
    sv39 = b.input("sv39")

    def coeff_mul(value: Value, name: str) -> Value:
        return b.mul(value, 3, name=name)  # fixed filter coefficient

    t1 = b.add(inp, sv2, name="t1")
    t2 = b.add(t1, sv33, name="t2")
    t3 = b.add(t2, sv39, name="t3")
    m1 = coeff_mul(t3, "m1")
    t4 = b.add(m1, sv13, name="t4")
    t5 = b.add(t4, sv26, name="t5")
    m2 = coeff_mul(t5, "m2")
    t6 = b.add(m2, t1, name="t6")
    t7 = b.add(t6, sv18, name="t7")
    m3 = coeff_mul(t7, "m3")
    t8 = b.add(m3, t2, name="t8")
    t9 = b.add(t8, sv38, name="t9")
    m4 = coeff_mul(t9, "m4")
    t10 = b.add(m4, t5, name="t10")
    t11 = b.add(t10, t7, name="t11")
    m5 = coeff_mul(t11, "m5")
    t12 = b.add(m5, t9, name="t12")
    t13 = b.add(t12, t3, name="t13")
    m6 = coeff_mul(t13, "m6")
    t14 = b.add(m6, t11, name="t14")
    t15 = b.add(t14, t4, name="t15")
    m7 = coeff_mul(t15, "m7")
    t16 = b.add(m7, t13, name="t16")
    t17 = b.add(t16, t6, name="t17")
    m8 = coeff_mul(t17, "m8")
    t18 = b.add(m8, t15, name="t18")
    t19 = b.add(t18, t8, name="t19")
    t20 = b.add(t19, t10, name="t20")
    t21 = b.add(t20, t12, name="t21")
    t22 = b.add(t21, t14, name="t22")
    t23 = b.add(t22, t16, name="t23")
    t24 = b.add(t23, t17, name="t24")
    t25 = b.add(t24, t19, name="t25")
    t26 = b.add(t25, t21, name="t26")

    b.output(t26, "outp")
    b.output(t20, "sv_next_a")
    b.output(t24, "sv_next_b")
    return b.build()


def sparse_fir(n_taps: int = 8, threshold: int = 4) -> CDFG:
    """FIR filter that skips taps whose sample is below ``threshold``.

    Per tap i: ``c_i = |x_i| > threshold`` (approximated as the two-sided
    compare ``x_i > t  OR-free form``: we test ``x_i > t`` only, keeping
    the circuit single-condition per tap), ``p_i = x_i * k_i`` and the
    accumulated term is ``c_i ? p_i : 0``.  Each multiplier sits alone in
    its mux's shut-down cone, so power management gates all ``n_taps``
    multipliers once one extra control step is available.
    """
    if n_taps < 1:
        raise ValueError("a FIR needs at least one tap")
    b = GraphBuilder(f"sparse_fir{n_taps}")
    taps = [b.input(f"x{i}") for i in range(n_taps)]

    accumulator: Value | None = None
    for i, x in enumerate(taps):
        c = b.gt(x, threshold, name=f"c{i}")
        p = b.mul(x, 2 * i + 1, name=f"p{i}")       # per-tap coefficient
        term = b.mux(c, 0, p, name=f"term{i}")      # skip small samples
        if accumulator is None:
            accumulator = term
        else:
            accumulator = b.add(accumulator, term, name=f"acc{i}")

    b.output(accumulator, "y")
    return b.build()


def gated_recurrence() -> CDFG:
    """Falsifying 14-node circuit pinned from the Hypothesis failure.

    Reconstructs, node for node (including the explicit control edge
    ``one -> v1``), the seed-0 random circuit on which
    ``VectorizedEngine`` raises ``VectorizationError``: after power
    management the register holding ``v1`` is written under a guard *and*
    read stale in the same step, which closes a dependency cycle through
    the cross-vector state.  ``create_engine(backend="auto")`` runs it
    on the compiled engine.
    """
    b = GraphBuilder("gated_recurrence")
    i0 = b.input("i0")
    i1 = b.input("i1")
    one = b.const(1)
    v1 = b.add(i0, i0, name="v1")
    v2 = b.add(i0, i0, name="v2")
    v3 = b.add(i0, i0, name="v3")
    v4 = b.add(i0, i0, name="v4")
    v5 = b.sub(i0, i0, name="v5")
    m6 = b.mux(one, v1, i1, name="m6")
    b.output(v2, "o0")
    b.output(v3, "o1")
    b.output(v4, "o2")
    b.output(v5, "o3")
    b.output(m6, "o4")
    # The generator emitted this guard explicitly; without it the PM pass
    # has no shut-down cone and the recurrence never forms.
    b.graph.add_control_edge(one.nid, v1.nid)
    return b.build()


def logic_mixer(n_stages: int = 12, width: int = 4) -> CDFG:
    """Pure-logic benchmark: ``width`` lanes stirred by logic-only stages.

    Each stage rotates the lanes through AND/OR/XOR/NOT and a MUX whose
    select is the previous stage's parity, so activity stays high and no
    stage folds away.  Contains no arithmetic or comparison nodes, so
    its simulation cost is pure logic dataflow.
    """
    if n_stages < 1 or width < 2:
        raise ValueError("logic_mixer needs n_stages >= 1 and width >= 2")
    b = GraphBuilder(f"logic_mixer{n_stages}x{width}")
    lanes = [b.input(f"x{i}") for i in range(width)]
    parity = b.xor(lanes[0], lanes[1], name="seed")
    for s in range(n_stages):
        nxt = []
        for i in range(width):
            a, c = lanes[i], lanes[(i + 1) % width]
            if i % 4 == 0:
                v = b.and_(a, c, name=f"s{s}a{i}")
            elif i % 4 == 1:
                v = b.or_(a, c, name=f"s{s}o{i}")
            elif i % 4 == 2:
                v = b.xor(a, c, name=f"s{s}x{i}")
            else:
                v = b.not_(b.xor(a, c, name=f"s{s}t{i}"), name=f"s{s}n{i}")
            nxt.append(v)
        # Cross-lane mux keyed on the running parity keeps the stages from
        # collapsing into independent per-lane chains.
        nxt[0] = b.mux(parity, nxt[0], nxt[-1], name=f"s{s}m")
        parity = b.xor(parity, nxt[0], name=f"s{s}p")
        lanes = nxt
    for i, lane in enumerate(lanes):
        b.output(lane, f"y{i}")
    b.output(parity, "parity")
    return b.build()
