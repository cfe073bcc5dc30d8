"""Command-line interface.

Subcommands: inspect-graph, budgets, run, experiment. Machine-readable
payloads (JSON, budget triples) go to stdout; diagnostics go to stderr. Exit
codes: 0 success, 1 runtime error, 2 configuration error (for an experiment,
any config fault, found before anything runs), 3 experiment with failed
runs (a graph that fails to load, a run that raises, a dead worker).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algorithms import RunConfig, run
from .chance import G2Regime
from .graphs import GraphFormatError, load_graph
from .harness import emit_trace, load_experiment_config, run_experiment
from .problem import Instance, SurrogateKind, build_weights, default_budgets

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsubmod",
        description="Chance-constrained monotone submodular optimization on graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect-graph", help="print graph summary as JSON")
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_cmd_inspect)

    p = sub.add_parser("budgets", help="print the three standard budgets for a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_cmd_budgets)

    # The modules that parse --weights, --surrogate, --algo and --regime own
    # their accepted names; an unknown name raises ValueError there.
    p = sub.add_parser("run", help="single optimizer run; RunResult JSON on stdout")
    p.add_argument("--graph", required=True, help="edge-list or .mtx file")
    p.add_argument("--weights", default="iid")
    p.add_argument("--a", type=int, default=1, help="shared expected weight (iid)")
    p.add_argument("--d", type=float, default=0.5, help="dispersion")
    p.add_argument("--B", type=float, required=True, help="weight budget")
    p.add_argument("--alpha", type=float, required=True, help="tolerated violation probability")
    p.add_argument("--surrogate", default="chebyshev")
    p.add_argument("--algo", required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", default="surrogate-g2")
    p.add_argument("--population", type=int, default=20, help="nsga2 population size")
    p.add_argument("--children", type=int, default=10, help="nsga2 children per generation")
    p.add_argument("--trace", metavar="CSV", default=None, help="also write a per-iteration trace CSV")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("experiment", help="run an experiment grid from a JSON config; progress on stderr")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None, help="defaults to CCSUBMOD_WORKERS or CPU count")
    p.add_argument("--out", default=None, help="override the config's output_dir")
    p.add_argument("--resume", action="store_true", help="reuse stored run files made by the same run configuration")
    p.set_defaults(handler=_cmd_experiment)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # Names other than --weights, which needs the graph, fail before it is read.
    cfg = RunConfig(
        algorithm=args.algo,
        t_max=args.tmax,
        seed=args.seed,
        regime=G2Regime.parse(args.regime),
        population=args.population,
        children=args.children,
        trace=args.trace is not None,
    )
    surrogate = SurrogateKind.parse(args.surrogate)
    graph = load_graph(args.graph)
    instance = Instance(
        graph=graph,
        weights=build_weights(graph, args.weights, a=args.a, d=args.d),
        budget=args.B,
        alpha=args.alpha,
        surrogate=surrogate,
        name=Path(args.graph).stem,
    )
    result = run(instance, cfg)
    payload = result.to_json_dict()
    # The embedded config plus the graph path regenerate the run exactly.
    payload["config"]["graph"] = args.graph
    # stdout must be byte-identical for identical (flags, seed); timing goes
    # to stderr instead.
    del payload["wall_time_s"]
    print(f"run finished in {result.wall_time_s:.2f}s", file=sys.stderr)
    if args.trace is not None:
        emit_trace(result, args.trace)
        payload["trace_path"] = args.trace
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    print()
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    degrees = graph.degrees
    json.dump(
        {
            "path": args.graph,
            "n": graph.n,
            "edges": graph.num_edges,
            "degree_min": int(degrees.min()),
            "degree_max": int(degrees.max()),
            "degree_mean": float(degrees.mean()),
            "isolated": int((degrees == 0).sum()),
        },
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    print()
    return EXIT_OK


def _cmd_budgets(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    print(" ".join(str(b) for b in default_budgets(graph.n)))
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = load_experiment_config(args.config)
    results = run_experiment(cfg, workers=args.workers, resume=args.resume, out_dir=args.out)
    if results.errors:
        for err in results.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GraphFormatError, ValueError, FileNotFoundError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
