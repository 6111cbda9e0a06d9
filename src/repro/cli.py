"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro stats dealer                    # Table I row
    python -m repro synthesize gcd --steps 7        # full report
    python -m repro synthesize my.circ --steps 6 --partial --ordering savings
    python -m repro synthesize gcd --steps 7 --scheduler force_directed
    python -m repro vhdl vender --steps 6 -o vender.vhd
    python -m repro simulate dealer --steps 6 --vectors 256
    python -m repro explore dealer gcd vender --budgets 5,6,7 --workers 4
    python -m repro explore gcd "gen:branchy:42" --budgets 6,7,8 \
        --store .cache/explore --resume sweep.jsonl --pareto
    python -m repro optimize vender --budgets 5,6 --iters 200 --seed 0
    python -m repro optimize dealer --steps 6 --objective sim_power \
        --store .cache/opt --resume opt.jsonl
    python -m repro serve --state .serve --port 8642 --workers 4
    python -m repro submit explore gcd dealer --budgets 5,6,7 --watch
    python -m repro submit optimize vender --budgets 6,7 --iters 100
    python -m repro jobs --port 8642                # list server jobs
    python -m repro journal compact sweep.jsonl
    python -m repro tables                          # Tables I-III summary

Circuit arguments are either a registered benchmark name (dealer, gcd,
vender, cordic) or a path to a ``.circ``/``.txt`` file in the description
language.  Every synthesis command drives a shared caching
:class:`repro.pipeline.Pipeline`, so multi-design commands reuse work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys

from repro.analysis.stats import circuit_stats
from repro.circuits import CIRCUITS, build
from repro.core.pm_pass import PMOptions
from repro.ir.graph import CDFG
from repro.lang.lower import compile_circuit
from repro.pipeline import (
    ArtifactCache,
    FlowConfig,
    Pipeline,
    StageError,
    available_schedulers,
    explore,
    run_pair,
)
from repro.power.simulated import compare_designs
from repro.report import full_report
from repro.rtl.vhdl import generate_vhdl
from repro.sched.timing import InfeasibleScheduleError, critical_path_length

# One pipeline per CLI invocation: `simulate` and `explore` style
# commands synthesize several related designs and share artifacts.
_PIPELINE = Pipeline(cache=ArtifactCache())


def load_circuit(spec: str) -> CDFG:
    """Benchmark name, family spec (``gen:<preset>:<seed>``), or a DSL
    source file path."""
    try:
        return build(spec)
    except ValueError as error:  # a family spec with bad parameters
        raise SystemExit(f"error: {error}") from None
    except KeyError:
        pass
    path = pathlib.Path(spec)
    if path.exists():
        return compile_circuit(path.read_text())
    raise SystemExit(
        f"error: {spec!r} is neither a known circuit "
        f"({', '.join(sorted(CIRCUITS))}), nor a generator spec like "
        f"'gen:medium:42', nor a readable file")


def _pm_options(args: argparse.Namespace) -> PMOptions:
    return PMOptions(
        ordering=args.ordering,
        partial=args.partial,
        enabled=not args.no_pm,
    )


def _steps_for(graph: CDFG, args: argparse.Namespace) -> int:
    if args.steps is not None:
        return args.steps
    return critical_path_length(graph) + args.slack


def _flow_config(graph: CDFG, args: argparse.Namespace) -> FlowConfig:
    return FlowConfig(
        n_steps=_steps_for(graph, args),
        pm=_pm_options(args),
        scheduler=args.scheduler,
        initiation_interval=args.ii,
        pipelined_gating=args.pipelined_gating,
        verify=args.verify,
    )


def cmd_stats(args: argparse.Namespace) -> int:
    graph = load_circuit(args.circuit)
    stats = circuit_stats(graph)
    print(f"circuit {stats.name!r}")
    print(f"  critical path : {stats.critical_path} control steps")
    print(f"  operations    : MUX {stats.mux}, COMP {stats.comp}, "
          f"+ {stats.add}, - {stats.sub}, * {stats.mul}")
    return 0


@contextlib.contextmanager
def _user_errors(*errors: type[Exception]):
    """Report a budget below the critical path, a failed ``--verify``
    and any of ``errors`` as a clean ``error:`` exit, not a traceback."""
    try:
        yield
    except (InfeasibleScheduleError, StageError, *errors) as error:
        raise SystemExit(f"error: {error}") from None


def cmd_synthesize(args: argparse.Namespace) -> int:
    graph = load_circuit(args.circuit)
    with _user_errors():
        result = _PIPELINE.run(graph, _flow_config(graph, args))
    print(full_report(result))
    return 0


def cmd_vhdl(args: argparse.Namespace) -> int:
    graph = load_circuit(args.circuit)
    with _user_errors():
        result = _PIPELINE.run(graph, _flow_config(graph, args))
    text = generate_vhdl(result.design)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    graph = load_circuit(args.circuit)
    config = _flow_config(graph, args)
    with _user_errors():
        pair = run_pair(graph, config, pipeline=_PIPELINE)
    with _user_errors(ValueError):  # a --vectors count below 1
        cmp = compare_designs(pair.baseline.design, pair.managed.design,
                              n_vectors=args.vectors, seed=args.seed)
    print(f"{graph.name} @ {config.n_steps} steps, {args.vectors} "
          f"random vectors")
    print(f"  baseline : {cmp.orig.total:8.3f} energy/sample, "
          f"area {cmp.area_orig}")
    print(f"  managed  : {cmp.managed.total:8.3f} energy/sample, "
          f"area {cmp.area_new}")
    print(f"  saved    : {cmp.reduction_pct:.1f}% total "
          f"({cmp.datapath_reduction_pct:.1f}% datapath), "
          f"area x{cmp.area_increase:.2f}")
    return 0


def _explore_spec(spec: str) -> "str | CDFG":
    """Keep registry/family names as strings (cheap to ship to workers
    and stable in resume journals); load file paths into CDFGs."""
    if spec in CIRCUITS:
        return spec
    if ":" in spec and not pathlib.Path(spec).exists():
        load_circuit(spec)  # validate the family spec eagerly
        return spec
    return load_circuit(spec)


def cmd_explore(args: argparse.Namespace) -> int:
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b]
    except ValueError:
        budgets = []
    if not budgets:
        raise SystemExit("error: --budgets needs a comma-separated list "
                         "of control-step counts, e.g. 5,6,7")
    configs = [FlowConfig(pm=_pm_options(args), scheduler=args.scheduler,
                          initiation_interval=args.ii,
                          pipelined_gating=args.pipelined_gating,
                          verify=args.verify)]
    if args.sim_vectors < 0:
        raise SystemExit(f"error: --sim-vectors must be at least 0, "
                         f"got {args.sim_vectors}")
    circuits = [_explore_spec(spec) for spec in args.circuits]
    try:
        result = explore(circuits, budgets, configs=configs,
                         workers=args.workers,
                         sim_vectors=args.sim_vectors,
                         store=args.store, resume=args.resume,
                         search=args.search)
    except (InfeasibleScheduleError, ValueError) as error:
        # search mode reports infeasible budgets as ValueError from
        # SearchSpace.for_graph; grid mode as InfeasibleScheduleError.
        raise SystemExit(
            f"error: {error} — drop that budget or raise it past the "
            f"critical path") from None
    if args.pareto:
        front = result.pareto()
        print(front.table())
        print(f"pareto front: {len(front.points)} of {len(result.points)} "
              f"points survive on (area, power, latency)")
    else:
        print(result.table())
    best = result.best()
    print(f"best point: {best.circuit} @ {best.n_steps} steps "
          f"({best.power_reduction_pct:.2f}% datapath power saved)")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    graph = load_circuit(args.circuit)
    from repro.opt.search import SearchSpec, optimize

    if args.budgets:
        try:
            budgets = tuple(int(b) for b in args.budgets.split(",") if b)
        except ValueError:
            budgets = ()
        if not budgets:
            raise SystemExit("error: --budgets needs a comma-separated "
                             "list of control-step counts, e.g. 5,6,7")
    else:
        budgets = (_steps_for(graph, args),)
    iters = args.iters
    if iters is None and not (args.search == "portfolio"
                              and args.time_budget is not None):
        # Without --iters a portfolio --time-budget run is purely
        # anytime (the wall clock is the budget); everything else gets
        # the default move count.  An explicit --iters keeps both caps.
        iters = 150
    spec = SearchSpec(driver=args.search, objective=args.objective,
                      iters=iters, seed=args.seed,
                      restarts=args.restarts, beam_width=args.beam_width,
                      workers=args.workers, time_budget=args.time_budget)
    pm_base = PMOptions(partial=args.partial)
    try:
        result = optimize(
            graph, spec, budgets=budgets,
            schedulers=tuple(s for s in args.schedulers.split(",") if s),
            store=args.store, journal=args.resume,
            sim_vectors=args.sim_vectors, pm_base=pm_base)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    print(result.table())
    if args.pareto_out and result.archive is not None:
        pathlib.Path(args.pareto_out).write_text(
            json.dumps(result.archive.to_dict(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"pareto archive ({len(result.archive)} points) "
              f"-> {args.pareto_out}")
    # The base carries the same pm_base the search scored candidates
    # under, so the synthesized design is the one the search selected.
    with _user_errors():
        synthesized = _PIPELINE.run(graph, result.flow_config(
            FlowConfig(pm=pm_base, verify=args.verify)))
    report = synthesized.static_report()
    print(f"chosen design: {synthesized.pm.managed_count} managed muxes, "
          f"{report.reduction_pct:.2f}% datapath power saved, "
          f"area {synthesized.design.area().total}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import JobServer

    async def _main() -> None:
        server = JobServer(
            args.state, host=args.host, port=args.port,
            workers=args.workers,
            max_store_entries=args.max_store_entries,
            chunk_size=args.chunk_size,
            maintenance_interval=args.maintain_every,
            server_id=args.server_id,
            lease_s=args.lease)
        await server.start()
        print(f"repro serve listening on http://{server.host}:{server.port}"
              f" ({args.workers} workers, state in {args.state}, "
              f"server id {server.server_id})")
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_client(args: argparse.Namespace):
    from repro.serve.client import ServeClient

    return ServeClient(host=args.host, port=args.port,
                       timeout=args.timeout)


def _parse_budgets(text: str) -> list[int]:
    try:
        budgets = [int(b) for b in text.split(",") if b]
    except ValueError:
        budgets = []
    if not budgets:
        raise SystemExit("error: --budgets needs a comma-separated list "
                         "of control-step counts, e.g. 5,6,7")
    return budgets


def _print_event(event: dict) -> None:
    kind = event.get("type")
    if kind == "point":
        p = event["point"]
        origin = "journal" if event.get("resumed") else "computed"
        print(f"  point  {p['circuit']:<10s} @{p['n_steps']:>2d} steps "
              f"{p['power_reduction_pct']:6.2f}% saved, area {p['area']} "
              f"({origin})")
    elif kind == "pareto":
        if "of" in event:  # explore sweep: front over the finished grid
            print(f"  pareto {event['size']} of {event['of']} points "
                  f"survive")
        else:  # portfolio optimizer: evolving archive snapshot
            print(f"  pareto round {event.get('round', '?'):>3} "
                  f"{event['size']} nondominated point"
                  f"{'' if event['size'] == 1 else 's'}")
    elif kind == "best":
        print(f"  best   step {event['step']:>4d} score {event['score']:.4f}"
              f" @{event['n_steps']} steps / {event['scheduler']}")
    elif kind == "state":
        detail = f": {event['error']}" if event.get("error") else ""
        print(f"  state  -> {event['state']}{detail}")
    elif kind == "gap":
        print(f"  gap    {event['dropped']} event"
              f"{'' if event['dropped'] == 1 else 's'} aged out of the "
              f"feed before streaming")


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import JobFailed, ServeError

    budgets = _parse_budgets(args.budgets)
    if args.kind == "explore":
        params = {
            "circuits": args.circuits,
            "budgets": budgets,
            "ordering": args.ordering,
            "partial": args.partial,
            "no_pm": args.no_pm,
            "scheduler": args.scheduler,
            "sim_vectors": args.sim_vectors,
        }
    else:
        if len(args.circuits) != 1:
            raise SystemExit(
                "error: submit optimize takes exactly one circuit")
        params = {
            "circuit": args.circuits[0],
            "budgets": budgets,
            "driver": args.search,
            "objective": args.objective,
            "iters": args.iters,
            "seed": args.seed,
            "restarts": args.restarts,
            "beam_width": args.beam_width,
            "workers": args.search_workers,
            "schedulers": [s for s in args.schedulers.split(",") if s],
            "sim_vectors": args.sim_vectors or 128,
            "partial": args.partial,
        }
        if args.time_budget is not None:
            params["time_budget"] = args.time_budget
    client = _serve_client(args)
    try:
        job = client.submit(args.kind, **params)
        print(f"job {job['id']} {job['state']}"
              + ("" if job["state"] == "queued" else " (shared in-flight)"))
        if args.watch:
            for event in client.stream(job["id"], timeout=args.timeout):
                _print_event(event)
            job = client.job(job["id"])
            _print_summary(job)
            if job["state"] == "failed":
                return 1
    except JobFailed as error:
        raise SystemExit(f"error: {error}") from None
    except (ServeError, ConnectionError, OSError, TimeoutError) as error:
        raise SystemExit(f"error: {error}") from None
    finally:
        client.close()
    return 0


def _print_summary(job: dict) -> None:
    result = job.get("result") or {}
    line = (f"job {job['id']} {job['state']}: "
            f"{job['completed']} units done, {job['resumed']} resumed")
    if "points" in result:
        line += (f"; pareto {result['pareto_size']}/{result['points']}"
                 f", store {result['store_hits']} hits")
    if "outcome" in result:
        outcome = result["outcome"]
        line += (f"; best score {outcome['score']:.4f} "
                 f"({result['evaluations']} evaluated, "
                 f"{result.get('memo_hits', 0)} memo + "
                 f"{result.get('store_hits', 0)} store hits, "
                 f"{result.get('design_hits', 0)} design-pair reuses, "
                 f"{result.get('outcome_hits', 0)} PM-outcome reuses, "
                 f"{result['resumed']} journal-resumed)")
        if result.get("pareto_size"):
            line += f"; pareto archive {result['pareto_size']}"
    print(line)


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError

    client = _serve_client(args)
    try:
        if args.job_id and args.follow:
            for event in client.stream(args.job_id, timeout=args.timeout):
                _print_event(event)
            _print_summary(client.job(args.job_id))
        elif args.job_id:
            job = client.job(args.job_id,
                             since=0 if args.events else None)
            _print_summary(job)
            for event in job.get("events", ()):
                _print_event(event)
        else:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
            for job in jobs:
                total = job["total"] if job["total"] is not None else "?"
                print(f"  {job['id']:<16s} {job['kind']:<9s} "
                      f"{job['state']:<10s} {job['completed']}/{total}")
    except (ServeError, ConnectionError, OSError) as error:
        raise SystemExit(f"error: {error}") from None
    finally:
        client.close()
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    from repro.durable import compact_journal

    status = 0
    for path in args.journals:
        if not pathlib.Path(path).exists():
            print(f"{path}: missing", file=sys.stderr)
            status = 1
            continue
        outcome = compact_journal(path)
        print(f"{path}: kept {outcome.kept}, dropped {outcome.dropped}, "
              f"{outcome.bytes_before} -> {outcome.bytes_after} bytes")
    return status


def cmd_stages(args: argparse.Namespace) -> int:
    print(Pipeline().describe())
    print(f"\nregistered schedulers: {', '.join(available_schedulers())}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.circuits import PAPER_TABLE1, PAPER_TABLE2
    from repro.paper_tables import measure_table1, measure_table2

    print("Table I (measured/paper):")
    for name, stats in measure_table1().items():
        paper = PAPER_TABLE1[name]
        print(f"  {name:8s} cp {stats.critical_path}/{paper.critical_path}"
              f"  mux {stats.mux}/{paper.mux} comp {stats.comp}/{paper.comp}"
              f" + {stats.add}/{paper.add} - {stats.sub}/{paper.sub}"
              f" * {stats.mul}/{paper.mul}")
    print("\nTable II (managed muxes, datapath power reduction,"
          " measured/paper):")
    paper2 = {(r.name, r.control_steps): r for r in PAPER_TABLE2}
    for row in measure_table2():
        p = paper2[(row.name, row.control_steps)]
        print(f"  {row.name:8s} @{row.control_steps:2d}: "
              f"{row.pm_muxes:2d}/{p.pm_muxes:2d} muxes, "
              f"{row.power_reduction_pct:5.2f}%/"
              f"{p.power_reduction_pct:5.2f}%")
    print("\n(run `pytest benchmarks/ --benchmark-only -s` for the full "
          "paper-vs-measured tables, including Table III)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-management-aware behavioral synthesis "
                    "(Monteiro et al., DAC 1996)")
    sub = parser.add_subparsers(dest="command", required=True)

    def flow_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ordering", default="output_first",
                       choices=("output_first", "input_first", "savings"),
                       help="MUX processing order (paper SIV-A)")
        p.add_argument("--partial", action="store_true",
                       help="enable per-operation fallback gating")
        p.add_argument("--no-pm", action="store_true",
                       help="disable power management (baseline design)")
        p.add_argument("--scheduler", default="list",
                       choices=available_schedulers(),
                       help="base scheduling strategy (default: list)")
        p.add_argument("--ii", type=int, default=None, metavar="N",
                       help="initiation-interval cap for pipelined "
                            "schedulers; --scheduler pipeline searches "
                            "for the smallest feasible II at or below it "
                            "(default: the step budget)")
        p.add_argument("--pipelined-gating", default="per_sample",
                       choices=("per_sample", "drop"),
                       help="guards that cross a stage boundary: carry "
                            "per-sample register copies, or drop them "
                            "conservatively (default: per_sample)")
        p.add_argument("--verify", action="store_true",
                       help="check the design: gating soundness, then "
                            "its outputs against the reference model "
                            "with power management on and off")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("circuit", help="benchmark name or DSL file")
        p.add_argument("--steps", type=int, default=None,
                       help="control-step budget (default: critical path "
                            "+ --slack)")
        p.add_argument("--slack", type=int, default=1,
                       help="extra steps over the critical path when "
                            "--steps is omitted (default 1)")
        flow_options(p)

    p_stats = sub.add_parser("stats", help="circuit statistics (Table I)")
    p_stats.add_argument("circuit")
    p_stats.set_defaults(func=cmd_stats)

    p_synth = sub.add_parser("synthesize", help="run the flow, print report")
    common(p_synth)
    p_synth.set_defaults(func=cmd_synthesize)

    p_vhdl = sub.add_parser("vhdl", help="emit VHDL")
    common(p_vhdl)
    p_vhdl.add_argument("-o", "--output", default=None)
    p_vhdl.set_defaults(func=cmd_vhdl)

    p_sim = sub.add_parser("simulate",
                           help="simulate baseline vs managed power")
    common(p_sim)
    p_sim.add_argument("--vectors", type=int, default=256)
    p_sim.add_argument("--seed", type=int, default=1996)
    p_sim.set_defaults(func=cmd_simulate)

    p_explore = sub.add_parser(
        "explore", help="batch design-space sweep over circuits x budgets")
    p_explore.add_argument("circuits", nargs="+",
                           help="benchmark names to sweep")
    p_explore.add_argument("--budgets", required=True,
                           help="comma-separated step budgets, e.g. 5,6,7")
    p_explore.add_argument("--workers", type=int, default=1,
                           help="worker processes (default 1 = in-process)")
    p_explore.add_argument("--store", default=None, metavar="DIR",
                           help="disk-backed artifact store directory "
                                "shared across workers and runs")
    p_explore.add_argument("--resume", default=None, metavar="FILE",
                           help="JSONL journal: finished points are "
                                "appended and skipped on re-runs")
    p_explore.add_argument("--pareto", action="store_true",
                           help="print only the (area, power, latency) "
                                "Pareto front of the sweep")
    p_explore.add_argument("--sim-vectors", type=int, default=0,
                           help="engine-simulate every point on N random "
                                "vectors (default 0 = static estimate)")
    p_explore.add_argument("--search", default=None,
                           choices=("anneal", "beam", "random", "portfolio"),
                           help="search the (ordering, budget) space with "
                                "this repro.opt driver instead of sweeping "
                                "the fixed grid (see `repro optimize` for "
                                "the tunable version)")
    flow_options(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_opt = sub.add_parser(
        "optimize",
        help="search (MUX ordering, budget, scheduler) space for the "
             "best design under a weighted objective")
    p_opt.add_argument("circuit", help="benchmark name, gen:<preset>:"
                                       "<seed> spec, or DSL file")
    p_opt.add_argument("--steps", type=int, default=None,
                       help="single control-step budget (default: "
                            "critical path + --slack)")
    p_opt.add_argument("--slack", type=int, default=1,
                       help="extra steps over the critical path when "
                            "--steps is omitted (default 1)")
    p_opt.add_argument("--budgets", default=None,
                       help="comma-separated budgets to search over "
                            "(overrides --steps)")
    p_opt.add_argument("--search", default="anneal",
                       choices=("anneal", "beam", "random", "portfolio"),
                       help="search driver (default: anneal)")
    p_opt.add_argument("--objective", default="gated_weight",
                       help="weighted metric terms 'name[=weight],...', "
                            "e.g. 'gated_weight' or 'sim_power,area=0.1'")
    p_opt.add_argument("--iters", type=int, default=None,
                       help="search moves (anneal/random; per island "
                            "for portfolio).  Default 150, or no move "
                            "cap for a portfolio run with --time-budget")
    p_opt.add_argument("--seed", type=int, default=0,
                       help="search RNG seed (default 0)")
    p_opt.add_argument("--restarts", type=int, default=2,
                       help="annealing restart chains (default 2)")
    p_opt.add_argument("--beam-width", type=int, default=4,
                       help="beam width for --search beam (default 4)")
    p_opt.add_argument("--workers", type=int, default=4,
                       help="island worker processes for --search "
                            "portfolio (default 4; 1 = in-process)")
    p_opt.add_argument("--time-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="anytime wall-clock budget: stop the search "
                            "and return the best archive so far")
    p_opt.add_argument("--pareto-out", default=None, metavar="FILE",
                       help="write the final Pareto archive as JSON")
    p_opt.add_argument("--schedulers", default="list",
                       help="comma-separated scheduler dimension "
                            "(default: list)")
    p_opt.add_argument("--sim-vectors", type=int, default=128,
                       help="vectors per simulation when the objective "
                            "needs sim_power (default 128)")
    p_opt.add_argument("--store", default=None, metavar="DIR",
                       help="disk store backing candidate evaluations "
                            "and stage artifacts across runs")
    p_opt.add_argument("--resume", default=None, metavar="FILE",
                       help="JSONL evaluation journal: finished "
                            "evaluations are replayed on re-runs")
    p_opt.add_argument("--partial", action="store_true",
                       help="enable per-operation fallback gating")
    p_opt.add_argument("--verify", action="store_true",
                       help="check the chosen design: gating "
                            "soundness, then its outputs against the "
                            "reference model")
    p_opt.set_defaults(func=cmd_optimize)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant exploration/optimization "
                      "job server (see docs/serving.md)")
    p_serve.add_argument("--state", default=".repro-serve", metavar="DIR",
                         help="server state directory: artifact store, "
                              "job registry, resume journals "
                              "(default .repro-serve)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (default 8642; 0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="process-pool workers shared by all jobs "
                              "(default 2)")
    p_serve.add_argument("--max-store-entries", type=int, default=65536,
                         help="artifact-store LRU bound (default 65536)")
    p_serve.add_argument("--chunk-size", type=int, default=1,
                         help="explore work units per pool task (default 1)")
    p_serve.add_argument("--maintain-every", type=float, default=0.0,
                         metavar="SECONDS",
                         help="run journal compaction + store GC on this "
                              "period (default 0 = only on demand)")
    p_serve.add_argument("--server-id", default=None, metavar="ID",
                         help="stable identity in the shared lease queue "
                              "(default: random per process); give each "
                              "server on a shared --state its own id")
    p_serve.add_argument("--lease", type=float, default=30.0,
                         metavar="SECONDS",
                         help="job lease duration: a crashed server's "
                              "jobs are re-claimed by a peer once its "
                              "lease expires (default 30)")
    p_serve.set_defaults(func=cmd_serve)

    def client_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8642)
        p.add_argument("--timeout", type=float, default=300.0,
                       help="per-request / watch timeout in seconds "
                            "(default 300)")

    p_submit = sub.add_parser(
        "submit", help="submit an explore/optimize job to a running "
                       "`repro serve` instance")
    p_submit.add_argument("kind", choices=("explore", "optimize"))
    p_submit.add_argument("circuits", nargs="+",
                          help="benchmark names, gen:<preset>:<seed> specs "
                               "or DSL files (optimize takes exactly one)")
    p_submit.add_argument("--budgets", required=True,
                          help="comma-separated step budgets, e.g. 5,6,7")
    p_submit.add_argument("--watch", action="store_true",
                          help="stream events until the job terminates")
    p_submit.add_argument("--ordering", default="output_first",
                          choices=("output_first", "input_first", "savings"))
    p_submit.add_argument("--partial", action="store_true")
    p_submit.add_argument("--no-pm", action="store_true")
    p_submit.add_argument("--scheduler", default="list")
    p_submit.add_argument("--sim-vectors", type=int, default=0)
    p_submit.add_argument("--search", default="anneal",
                          choices=("anneal", "beam", "random", "portfolio"),
                          help="optimize search driver (default: anneal)")
    p_submit.add_argument("--objective", default="gated_weight")
    p_submit.add_argument("--iters", type=int, default=150)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--restarts", type=int, default=2)
    p_submit.add_argument("--beam-width", type=int, default=4)
    p_submit.add_argument("--search-workers", type=int, default=4,
                          help="portfolio island workers inside the "
                               "serve worker (default 4)")
    p_submit.add_argument("--time-budget", type=float, default=None,
                          metavar="SECONDS",
                          help="anytime wall-clock budget for the search")
    p_submit.add_argument("--schedulers", default="list")
    client_options(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list a running server's jobs, or inspect one")
    p_jobs.add_argument("job_id", nargs="?", default=None,
                        help="job id to inspect (default: list all)")
    p_jobs.add_argument("--events", action="store_true",
                        help="with a job id, also print its event feed")
    p_jobs.add_argument("--follow", action="store_true",
                        help="with a job id, stream live events over SSE "
                             "until the job terminates")
    client_options(p_jobs)
    p_jobs.set_defaults(func=cmd_jobs)

    p_journal = sub.add_parser(
        "journal", help="journal maintenance (compaction)")
    journal_sub = p_journal.add_subparsers(dest="journal_command",
                                           required=True)
    p_compact = journal_sub.add_parser(
        "compact", help="rewrite JSONL journals keeping only the last "
                        "record per key")
    p_compact.add_argument("journals", nargs="+", metavar="FILE")
    p_compact.set_defaults(func=cmd_journal)

    p_stages = sub.add_parser("stages",
                              help="show the pipeline wiring and schedulers")
    p_stages.set_defaults(func=cmd_stages)

    p_tables = sub.add_parser("tables", help="paper tables summary")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
