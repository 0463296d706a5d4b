"""Command-line front end.

Subcommands cover the full loop: generate data (gen-moons), materialize
kernels (build-kernels), run the single- or multiple-kernel solver (spc,
mspc), score label files (eval), and draw results (plot).

Exit codes: 0 for a converged run, 2 for a run that finished without
converging, 1 for any error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .workbench import (
    REPORT_METRICS,
    ExperimentConfig,
    _atomic_write,
    _score_labels,
    _source_kind,
    build_kernel_choice,
    companion_labels_path,
    emit_scatter_svg,
    generate_two_moons,
    kernel_label,
    load_dense_matrix,
    load_labels,
    run_experiment,
    save_dataset,
    save_matrix,
)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route usage errors through the normal error path so they exit 1, not 2
    def error(self, message):
        raise _CliError(message)


# the parser of each config field type; a bool field takes --name and --no-name
_FLAG_TYPES = {"int": int, "float": float, "str": str}

_FLAG_HELP = {
    "kernel": "gaussian:t | poly:a,b | linear | bank",
    "adapt_beta": "double/halve beta until the component count matches --clusters",
    "out": "output directory (default: current)",
}


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "source",
        nargs="?",
        type=_source_string,
        metavar="data",
        help="dense matrix file (columns are samples), or a source string like moons:n=300",
    )
    p.add_argument("--config", metavar="PATH", help="JSON config file; flags override its values")
    # one flag per config field, unset unless given so the config file's value stands;
    # the subcommand sets the mode
    for f in fields(ExperimentConfig):
        if f.name in ("source", "mode"):
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None, help=_FLAG_HELP.get(f.name))
        else:
            p.add_argument(flag, type=_FLAG_TYPES[f.type], help=_FLAG_HELP.get(f.name))


def _source_string(data: str) -> str:
    return data if _source_kind(data) else f"file:{data}"


def _print_metrics(metrics: dict) -> None:
    for key in REPORT_METRICS:
        print(f"{key} = {metrics[key]:.6f}")


def _run_solver(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig.from_sources(args.config, overrides)
    report = run_experiment(cfg)

    state = "converged" if report.converged else "did not converge"
    print(f"{cfg.mode}: {state} after {report.trace.iterations} iterations, {report.components} components")
    if report.metrics is not None:
        _print_metrics(report.metrics)
    print(f"report: {os.path.join(cfg.out, 'report.txt')}")
    return 0 if report.converged else 2


def _cmd_gen_moons(args) -> int:
    X = generate_two_moons(args.n, noise_sigma=args.noise, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "moons.csv")
    save_dataset(X, data_path)
    print(f"wrote {data_path} and {companion_labels_path(data_path)}")
    return 0


def _cmd_build_kernels(args) -> int:
    X = load_dense_matrix(args.data)
    bank = build_kernel_choice(X, args.kernel)
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for i, K in enumerate(bank, start=1):
        name = f"kernel_{i:02d}.csv"
        save_matrix(K.values, os.path.join(args.out, name))
        manifest.append(f"{name} {kernel_label(K)}")
    _atomic_write(os.path.join(args.out, "kernels.txt"), [line + "\n" for line in manifest])
    print(f"wrote {len(bank)} kernel matrices and kernels.txt to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _print_metrics(_score_labels(load_labels(args.pred), load_labels(args.truth)))
    return 0


def _cmd_plot(args) -> int:
    X = load_dense_matrix(args.data, labels_path=args.labels)
    if X.labels is None:
        raise _CliError(
            "no labels to color by; pass a labels file or provide a companion .labels file"
        )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "scatter.svg")
    emit_scatter_svg(X, X.labels, path)
    print(f"wrote {path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="spclust",
        description="Graph-learning clustering over one kernel or a learned kernel mixture.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-moons", help="write a synthetic two-moons dataset")
    p.add_argument("--n", type=int, default=300, metavar="N", help="total points (even)")
    p.add_argument("--noise", type=float, default=0.08, metavar="F", help="gaussian noise scale")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(handler=_cmd_gen_moons)

    p = sub.add_parser("build-kernels", help="materialize kernel matrices for a dataset")
    p.add_argument("data", help="dense matrix file (columns are samples)")
    p.add_argument("--kernel", default="bank", metavar="SPEC", help="gaussian:t | poly:a,b | linear | bank")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(handler=_cmd_build_kernels)

    p = sub.add_parser("spc", help="cluster with a single kernel")
    _add_solver_flags(p)
    p.set_defaults(handler=_run_solver, mode="spc")

    p = sub.add_parser("mspc", help="cluster with a kernel bank and learned weights")
    _add_solver_flags(p)
    p.set_defaults(handler=_run_solver, mode="mspc")

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("pred", help="predicted labels file (one integer per line)")
    p.add_argument("truth", help="ground-truth labels file")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("plot", help="draw a labeled scatter of a 2-feature dataset")
    p.add_argument("data", help="dense matrix file (columns are samples)")
    p.add_argument("labels", nargs="?", help="labels file (default: companion .labels)")
    p.add_argument("--out", default=".", metavar="DIR")
    p.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except Exception as e:  # usage errors (_CliError) and run failures alike
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
