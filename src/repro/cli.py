"""Command-line interface.

The subcommands cover the library's main entry points::

    repro simulate T-AlexNet --design Sh40+C10+Boost --scale 0.5
    repro simulate T-AlexNet --sanitize        # run under the SimSanitizer
    repro simulate T-AlexNet --watchdog        # stall watchdog + wait graphs
    repro profile --app T-AlexNet --design Sh40  # per-handler event profile
    repro characterize --scale 1.0
    repro figures fig14 fig16
    repro figures --all --jobs 8 --cache-dir ~/.cache/repro  # parallel + persistent
    repro sweep P-2MM --scale 0.5 --jobs 4
    repro lint src/repro                       # SimLint static analysis
    repro race --static src/repro              # SimRace ordering-hazard scan
    repro race --confirm --app P-2MM -k 5      # SimRace shadow-shuffle replay
    repro flow src/repro                       # SimFlow liveness analysis
    repro purity src/repro                     # SimPure key-soundness scan
    repro purity --confirm --scale 0.1         # mutate-and-replay confirmation
    repro shard src/repro                      # SimShard distribution safety
    repro shard --confirm --scale 0.1          # serial/fork/spawn replay diff
    repro heat src/repro                       # SimHeat hot-path hygiene scan
    repro heat --confirm --scale 0.1           # force-fast vs force-slow replay
    repro analyze src/repro                    # the full hexapod, one table
    repro analyze --json src/repro             # machine-readable CI artifact

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.  Design names accept the paper's labels
(``Baseline``, ``Pr40``, ``Sh40``, ``Sh40+C10``, ``Sh40+C10+Boost``,
``CDXBar``...) or constructor-style strings like ``clustered:40:10:2``.
``run`` is an alias for ``simulate``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.core.designs import DesignSpec
from repro.sim.config import SimConfig
from repro.sim.system import simulate
from repro.workloads.suite import APP_NAMES, get_app

#: Version of the ``repro analyze --json`` report schema.  Bump when the
#: document's shape changes so downstream consumers (the future SimServe
#: API, CI artifact differs) can dispatch on it.  v2: the pentapod grew
#: into a hexapod — a ``simheat`` tool section joined the report.
ANALYZE_SCHEMA_VERSION = 2

_NAMED_DESIGNS = {
    "baseline": DesignSpec.baseline(),
    "pr80": DesignSpec.private(80),
    "pr40": DesignSpec.private(40),
    "pr20": DesignSpec.private(20),
    "pr10": DesignSpec.private(10),
    "sh40": DesignSpec.shared(40),
    "sh40+c5": DesignSpec.clustered(40, 5),
    "sh40+c10": DesignSpec.clustered(40, 10),
    "sh40+c20": DesignSpec.clustered(40, 20),
    "sh40+c10+boost": DesignSpec.clustered(40, 10, boost=2.0),
    "cdxbar": DesignSpec.cdxbar(),
    "cdxbar+2xnoc": DesignSpec.cdxbar(2.0, 2.0),
    "singlel1": DesignSpec.single_l1(),
}


def parse_design(text: str) -> DesignSpec:
    """Resolve a design from a paper label or a constructor string."""
    key = text.strip().lower()
    if key in _NAMED_DESIGNS:
        return _NAMED_DESIGNS[key]
    parts = key.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "private":
            return DesignSpec.private(int(args[0]))
        if kind == "shared":
            return DesignSpec.shared(int(args[0]))
        if kind == "clustered":
            boost = float(args[2]) if len(args) > 2 else 1.0
            return DesignSpec.clustered(int(args[0]), int(args[1]), boost=boost)
    except (IndexError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad design spec {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"unknown design {text!r}; named designs: {sorted(_NAMED_DESIGNS)} "
        "or private:Y / shared:Y / clustered:Y:Z[:boost]"
    )


def _cmd_simulate(args) -> int:
    from repro.analysis.analytical import validate_against

    cfg = SimConfig(
        scale=args.scale, cta_scheduler=args.scheduler, sanitize=args.sanitize,
        watchdog=args.watchdog,
    )
    app = get_app(args.app)

    def row(spec, res, base):
        bound = validate_against(res, spec, app, gpu=cfg.gpu)
        return [
            spec.label, f"{res.ipc:.2f}",
            f"{res.speedup_vs(base):.2f}x", f"{res.l1_miss_rate:.1%}",
            f"{res.replication_ratio:.1%}", f"{res.load_rtt_mean:.0f}",
            bound["binding"],
        ]

    base_spec = DesignSpec.baseline()
    base = simulate(app, base_spec, cfg)
    rows = [row(base_spec, base, base)]
    for spec in args.design:
        rows.append(row(spec, simulate(app, spec, cfg), base))
    print(format_table(
        ["design", "IPC", "speedup", "miss", "replication", "RTT", "bottleneck"],
        rows, title=f"{app.name} @ scale {args.scale:g}"))
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.sim.profiler import profile_simulation

    cfg = SimConfig(scale=args.scale)
    app = get_app(args.app)
    res, prof = profile_simulation(app, args.design, cfg,
                                   trace_alloc=args.alloc)
    if args.json:
        # Deterministic shape (handlers sorted by name, not by timing) so
        # CI can diff the structure across runs; the timing numbers
        # themselves are wall-clock and vary.
        rows = sorted(prof.rows(), key=lambda r: r.handler)
        doc = {
            "app": app.name,
            "design": args.design.label,
            "scale": args.scale,
            "alloc_traced": bool(args.alloc),
            "production_tier": prof.production_tier,
            "total_events": prof.total_events,
            "total_self_s": prof.total_self_time,
            "wall_time_s": res.wall_time_s,
            "events_per_s": res.events_per_s,
            "handlers": [
                {
                    "handler": r.handler,
                    "events": r.events,
                    "self_s": r.self_s,
                    "pct": r.pct,
                    "us_per_event": r.us_per_event,
                    "alloc_b_per_event": r.alloc_b_per_event,
                }
                for r in rows
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"{app.name} @ {args.design.label}, scale {args.scale:g}")
    if prof.production_tier == "fused":
        print("dispatch: fused in production; the per-handler table was "
              "taken on scalar dispatch (the profiler outranks batched "
              "dispatch)")
    else:
        print(f"dispatch: {prof.production_tier} (the production path; "
              "this table measured it)")
    print(prof.render(top=args.top))
    print(
        f"sim: ipc={res.ipc:.2f} cycles={res.cycles:.0f} "
        f"events={prof.total_events} wall={res.wall_time_s:.3f}s "
        f"({res.events_per_s:,.0f} events/s end-to-end)"
    )
    return 0


def _cmd_characterize(args) -> int:
    from repro.analysis.classify import classify
    from repro.workloads.suite import REPLICATION_SENSITIVE, all_apps

    cfg = SimConfig(scale=args.scale)
    rows = []
    for prof in all_apps():
        base = simulate(prof, DesignSpec.baseline(), cfg)
        big = simulate(
            prof, DesignSpec.baseline(l1_size_mult=16.0),
            SimConfig(scale=args.scale, l1_latency_override=cfg.gpu.l1_latency),
        )
        row = classify(base, big)
        rows.append([
            row.app, f"{row.replication_ratio:.1%}", f"{row.l1_miss_rate:.1%}",
            f"{row.speedup_16x:.2f}x",
            "sensitive" if row.replication_sensitive else "-",
            "sensitive" if prof.name in REPLICATION_SENSITIVE else "-",
        ])
    rows.sort(key=lambda r: float(r[1].rstrip("%")))
    print(format_table(
        ["app", "replication", "miss", "16x", "measured", "paper"], rows))
    return 0


def _make_runner(args, scale: float):
    """Build a Runner from the shared --jobs/--cache-dir/--no-cache flags."""
    from repro.experiments.base import Runner

    cache = False if args.no_cache else (args.cache_dir or None)
    return Runner(SimConfig(scale=scale), jobs=args.jobs, cache=cache)


def _add_sweep_flags(parser) -> None:
    """The parallel-sweep/persistent-cache flags shared by grid commands."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="simulate cache misses over N worker processes "
             "(default: REPRO_JOBS, else serial)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result-cache directory "
             "(default: REPRO_CACHE_DIR, else no disk cache)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache even if REPRO_CACHE_DIR is set")


def _cmd_figures(args) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if args.list:
        print("\n".join(EXPERIMENTS))
        return 0
    ids = list(EXPERIMENTS) if args.all else args.ids
    if not ids:
        print("no experiments given (use --all or --list)", file=sys.stderr)
        return 2
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    runner = _make_runner(args, args.scale)
    for exp_id in ids:
        # Wall-clock is fine here: it reports elapsed real time to the user
        # and never feeds the simulation.
        t0 = time.time()  # simlint: disable=SL101
        print(run_experiment(exp_id, runner).render())
        print(f"({time.time() - t0:.1f}s)\n")  # simlint: disable=SL101
    # Observability goes to stderr: stdout stays a deterministic result
    # stream (cold and cache-warm reruns must diff clean).
    summary = runner.throughput_summary()
    if summary:
        print(summary, file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    from repro.sim.validation import GridValidationError, validate_grid

    runner = _make_runner(args, args.scale)
    app = get_app(args.app)
    specs = [DesignSpec.baseline()]
    specs += [DesignSpec.private(y) for y in (80, 40, 20, 10)]
    specs += [DesignSpec.clustered(40, z) for z in (1, 5, 10, 20)]
    specs.append(DesignSpec.clustered(40, 10, boost=2.0))
    points = [(app, spec) for spec in specs]
    # Strict pre-flight (duplicates are grid-construction bugs here, not
    # intentional collapses) before anything reaches the process pool.
    try:
        validate_grid(runner.resolve_points(points))
    except GridValidationError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    results = runner.run_many(points)
    base = results[0]
    rows = [
        [spec.label, f"{res.speedup_vs(base):.2f}x", f"{res.l1_miss_rate:.1%}"]
        for spec, res in zip(specs[1:], results[1:])
    ]
    print(format_table(["design", "speedup", "miss"], rows,
                       title=f"Design-space sweep: {app.name}"))
    # Observability goes to stderr: stdout stays a deterministic result
    # stream (cold and cache-warm reruns must diff clean).
    summary = runner.throughput_summary()
    if summary:
        print(summary, file=sys.stderr)
    return 0


class _UsageError(Exception):
    """A bad command-line value: :func:`main` prints it to stderr and
    exits 2."""


class _Analyzer(NamedTuple):
    """One static analyzer as ``repro <command>`` and ``repro analyze``
    drive it."""

    name: str        # report name and suppression marker, e.g. "simlint"
    command: str     # the repro subcommand
    summary: str     # what it checks (the `repro analyze` table)
    rules: Sequence  # rule records with rule_id, severity and title
    run: Callable    # run(paths, select=None) -> sorted findings
    #: confirm(args) -> a report with ``.ok`` and ``.render(findings)``.
    confirm: Optional[Callable] = None


def _analyzers() -> Tuple[_Analyzer, ...]:
    """The six analyzers in `repro analyze` row order.  Built inside the
    analyzer commands only, so no simulator command imports them."""
    from repro.analysis import simflow, simheat, simlint, simpure, simrace, simshard

    return (
        _Analyzer("simlint", "lint", "determinism/resource hygiene",
                  simlint.RULES, simlint.run_lint),
        _Analyzer("simrace", "race", "same-cycle ordering hazards",
                  simrace.RACE_RULES, simrace.run_race,
                  lambda args: simrace.confirm_races(
                      get_app(args.app), args.design,
                      SimConfig(scale=args.scale), k=args.k)),
        _Analyzer("simflow", "flow", "resource-flow liveness",
                  simflow.FLOW_RULES, simflow.run_flow),
        _Analyzer("simpure", "purity", "cache-key & fingerprint soundness",
                  simpure.PURITY_RULES, simpure.run_purity,
                  lambda args: simpure.confirm_purity(
                      grid=_parse_grid("simpure", args.grid),
                      scale=args.scale)),
        _Analyzer("simshard", "shard", "distribution safety",
                  simshard.SHARD_RULES, simshard.run_shard,
                  lambda args: simshard.confirm_shard(
                      grid=_parse_grid("simshard", args.grid),
                      scale=args.scale, jobs=args.jobs)),
        _Analyzer("simheat", "heat", "twin-path & hot-path hygiene",
                  simheat.HEAT_RULES, simheat.run_heat,
                  lambda args: simheat.confirm_heat(
                      grid=_parse_grid("simheat", args.grid, "P-2MM/Sh40+C10"),
                      scale=args.scale, trace_alloc=not args.no_alloc)),
    )


def _parse_grid(
    tool: str, entries: Optional[List[str]], example: str = "P-2MM/Pr40",
) -> Optional[List[Tuple[str, str]]]:
    """``--grid APP/DESIGN`` entries as (app, design) pairs, or None (the
    confirmer's default grid) when none were given."""
    if entries is None:
        return None
    grid = []
    for entry in entries:
        app_name, _, design = entry.partition("/")
        try:
            if not design:
                raise argparse.ArgumentTypeError(
                    f"expected APP/DESIGN, e.g. {example}")
            if app_name not in APP_NAMES:
                raise argparse.ArgumentTypeError(f"unknown app {app_name!r}")
            parse_design(design)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(
                f"{tool}: bad --grid entry {entry!r} ({exc})") from None
        grid.append((app_name, design))
    return grid


def _analysis_paths(tool: str, paths: List[str]) -> List[str]:
    """The paths to analyze (default: the repro package itself)."""
    paths = paths or [os.path.dirname(os.path.abspath(__file__))]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise _UsageError(f"{tool}: no such path: {', '.join(missing)}")
    return paths


def _static_pass(tool: _Analyzer, paths: List[str],
                 select: Optional[List[str]] = None,
                 strict: bool = False, echo: bool = True):
    """Run one analyzer's static pass, printing each finding unless
    ``echo`` is off.  Returns (findings, error count, failed)."""
    from repro.analysis.core import Severity

    findings = tool.run(paths, select=select)
    if echo:
        for f in findings:
            print(f.format())
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    return findings, errors, bool(errors or (strict and findings))


def _cmd_analyzer(args) -> int:
    """``repro lint|race|flow|purity|shard|heat``: the static pass, and
    the dynamic confirmer when ``--confirm`` asks for it."""
    from repro.analysis.core import rule_table

    tool = next(t for t in _analyzers() if t.command == args.command)
    table = rule_table(tool.rules)
    if args.list_rules:
        for rule_id, severity, title in table:
            print(f"{rule_id}  {severity:<7}  {title}")
        return 0
    known = {rule_id for rule_id, _, _ in table}
    unknown = [r for r in args.select or () if r.upper() not in known]
    if unknown:
        raise _UsageError(
            f"{tool.name}: unknown rule(s) {', '.join(unknown)} "
            f"(see `repro {tool.command} --list-rules`)")
    confirm = tool.confirm if getattr(args, "confirm", False) else None
    findings, exit_code = [], 0
    if confirm is None or args.static:
        paths = _analysis_paths(tool.name, args.paths)
        findings, errors, failed = _static_pass(
            tool, paths, args.select or None, args.strict)
        if findings:
            print(f"{tool.name}: {errors} error(s), "
                  f"{len(findings) - errors} warning(s)", file=sys.stderr)
        exit_code = int(failed)
    if confirm is not None:
        report = confirm(args)
        print(report.render(findings))
        if not report.ok:
            exit_code = 1
    return exit_code


def _cmd_analyze(args) -> int:
    import json

    paths = _analysis_paths("analyze", args.paths)
    rows = []
    report = []
    exit_code = 0
    for tool in _analyzers():
        findings, errors, failed = _static_pass(
            tool, paths, strict=args.strict, echo=not args.json)
        warnings = len(findings) - errors
        if failed:
            exit_code = 1
        rows.append([
            tool.name, tool.summary, str(errors), str(warnings),
            "FAIL" if failed else "ok",
        ])
        report.append({
            "tool": tool.name,
            "checks": tool.summary,
            "errors": errors,
            "warnings": warnings,
            "status": "fail" if failed else "ok",
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule_id,
                    "severity": f.severity.value,
                    "message": f.message,
                }
                for f in findings
            ],
        })
    if args.json:
        # One deterministic JSON document on stdout — a CI artifact that
        # machines diff across runs (each tool's findings are sorted by
        # path/line/col/rule).
        print(json.dumps(
            {
                "schema_version": ANALYZE_SCHEMA_VERSION,
                "paths": list(paths),
                "strict": bool(args.strict),
                "tools": report,
                "exit_code": exit_code,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(format_table(
            ["tool", "checks", "errors", "warnings", "status"], rows,
            title=f"repro analyze: {' '.join(paths)}"))
    return exit_code


def _analyzer_parser(sub, command: str, summary: str, rule_id: str,
                     rules: str, paths: str = "to analyze", static: str = "",
                     confirm: str = "",
                     flags: Sequence[Tuple[Tuple[str, ...], dict]] = ()):
    """One analyzer subcommand: PATHS; ``--static``, ``--confirm`` and the
    confirmer's own ``flags`` when it has a confirmer; then the shared
    ``--select/--strict/--list-rules``."""
    p = sub.add_parser(command, help=summary)
    p.add_argument("paths", nargs="*", help=(
        f"files/directories {'for --static' if confirm else paths} "
        "(default: the repro package)"))
    if confirm:
        p.add_argument("--static", action="store_true",
                       help=f"run the static {static} pass "
                            "(default when --confirm is not given)")
        p.add_argument("--confirm", action="store_true", help=confirm)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
    p.add_argument("--select", action="append", metavar="RULE",
                   help=f"only run the given {rule_id} (repeatable)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings too, not only errors")
    p.add_argument("--list-rules", action="store_true",
                   help=f"list the registered {rules} and exit")
    p.set_defaults(func=_cmd_analyzer)


def _grid_flag(example: str, default: str):
    return (("--grid",), dict(
        action="append", metavar="APP/DESIGN",
        help=f"grid point for --confirm, e.g. {example} "
             f"(repeatable; default: {default})"))


_SCALE_FLAG = (("--scale",), dict(
    type=float, default=0.1, help="workload scale for --confirm"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", aliases=["run"],
                       help="run one app on one or more designs")
    p.add_argument("app", choices=APP_NAMES)
    p.add_argument("--design", type=parse_design, action="append",
                   default=None, help="design label or constructor string")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--scheduler", choices=("round_robin", "distributed"),
                   default="round_robin")
    p.add_argument("--sanitize", action="store_true",
                   help="run under the SimSanitizer resource ledger "
                        "(leak/double-free/lifecycle checking)")
    p.add_argument("--watchdog", action="store_true",
                   help="run under the stall watchdog: a wedged/livelocked "
                        "run raises SimStallError with a resource wait-graph "
                        "dump instead of hanging")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "profile",
        help="per-handler event profile of one simulation (SimTurbo observability)",
    )
    p.add_argument("--app", choices=APP_NAMES, required=True)
    p.add_argument("--design", type=parse_design, default=DesignSpec.shared(40),
                   help="design label or constructor string (default Sh40)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--top", type=int, default=0,
                   help="limit the table to the N hottest handlers (0 = all)")
    p.add_argument("--json", action="store_true",
                   help="emit one deterministic per-handler JSON document on "
                        "stdout (handlers sorted by name) instead of the table")
    p.add_argument("--alloc", action="store_true",
                   help="also attribute net heap allocation to each handler "
                        "via tracemalloc (substantial slowdown; timing "
                        "numbers are not comparable to plain profiles)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("characterize", help="Figure 1 classification of the suite")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("figures", help="regenerate paper tables/figures")
    p.add_argument("ids", nargs="*")
    p.add_argument("--all", action="store_true")
    p.add_argument("--list", action="store_true")
    p.add_argument("--scale", type=float, default=1.0)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("sweep", help="aggregation/clustering sweep on one app")
    p.add_argument("app", choices=APP_NAMES)
    p.add_argument("--scale", type=float, default=0.5)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_sweep)

    _analyzer_parser(
        sub, "lint", "SimLint: simulator-specific static analysis",
        "rule ID", "rules", paths="to lint")
    _analyzer_parser(
        sub, "race",
        "SimRace: same-cycle ordering-hazard detection "
        "(static AST pass and/or shadow-shuffle replay)",
        "SR rule ID", "SimRace rules", static="co-scheduling conflict",
        confirm="replay one workload under K same-cycle permutations "
                "and diff bit-exact results against the FIFO baseline",
        flags=[
            (("--app",), dict(choices=APP_NAMES, default="P-2MM",
                              help="application for --confirm "
                                   "(default: P-2MM)")),
            (("--design",), dict(type=parse_design,
                                 default=DesignSpec.private(40),
                                 help="design for --confirm (default: Pr40)")),
            (("--scale",), dict(type=float, default=0.25,
                                help="workload scale for --confirm")),
            (("-k",), dict(type=int, default=5,
                           help="number of shuffle permutations for "
                                "--confirm")),
        ])
    _analyzer_parser(
        sub, "flow",
        "SimFlow: static resource-flow liveness analysis "
        "(leaks, stray releases, acquire-order cycles)",
        "SF rule ID", "SimFlow rules")
    _analyzer_parser(
        sub, "purity",
        "SimPure: cache-key & fingerprint soundness "
        "(static AST pass and/or mutate-and-replay confirmation)",
        "SP rule ID", "SimPure rules", static="key-soundness",
        confirm="mutate every keyed field (key must change) and every "
                "excluded input (fingerprint must stay bit-identical) "
                "over a small app/design grid",
        flags=[
            _grid_flag("P-2MM/Pr40",
                       "P-2MM/Pr40, T-AlexNet/Sh40+C10, C-BLK/Baseline"),
            _SCALE_FLAG,
        ])
    _analyzer_parser(
        sub, "shard",
        "SimShard: distribution safety of the sweep layer "
        "(static AST pass and/or serial/fork/spawn replay confirmation)",
        "SD rule ID", "SimShard rules", static="distribution-safety",
        confirm="pickle-roundtrip every grid point (cache key must "
                "survive) and replay a small grid serial vs fork-pool "
                "vs spawn-pool, requiring bit-identical fingerprints",
        flags=[
            _grid_flag("P-2MM/Pr40", "P-2MM/Pr40, T-AlexNet/Sh40+C10, "
                                     "C-BLK/Baseline, C-NN/Sh40"),
            _SCALE_FLAG,
            (("--jobs",), dict(type=int, default=2,
                               help="pool width for the --confirm replays "
                                    "(default 2)")),
        ])
    _analyzer_parser(
        sub, "heat",
        "SimHeat: hot-path performance hygiene (static AST pass) "
        "and/or twin-path force-fast vs force-slow replay confirmation",
        "SH rule ID", "SimHeat rules", static="hot-path hygiene",
        confirm="replay a small grid with the hot path forced on and "
                "forced off, requiring bit-identical fingerprints, "
                "and alloc-profile the hot handlers",
        flags=[
            _grid_flag("P-2MM/Sh40+C10", "T-AlexNet/Sh40, P-2MM/Sh40+C10, "
                                         "C-SP/Pr40, C-BLK/Baseline"),
            _SCALE_FLAG,
            (("--no-alloc",), dict(action="store_true",
                                   help="skip the tracemalloc allocation "
                                        "profile in --confirm (twin replays "
                                        "only; much faster)")),
        ])

    p = sub.add_parser(
        "analyze",
        help="run the full static-analysis hexapod (lint + race + flow "
             "+ purity + shard + heat) with a unified summary table and "
             "combined exit code",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to analyze (default: the repro package)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings too, not only errors")
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON document on stdout "
                        "(per-tool findings + combined exit code) instead of "
                        "the human table — for CI artifacting")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) in ("simulate", "run") and args.design is None:
        args.design = [DesignSpec.clustered(40, 10, boost=2.0)]
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
