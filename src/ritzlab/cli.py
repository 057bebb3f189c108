"""Command-line interface.

Subcommands:
  construct-verify           exactness suite for all weight-level gadgets
  verify-gradnet NETFILE     gradient-norm transform check for a stored net
  train CONFIG               one training run (net file + history CSV + JSON)
  study CONFIG               convergence-rate study (JSON + CSV)
  decompose CONFIG           error-decomposition report (JSON)
  bounds                     print every theory-bound value for given inputs

Configs are YAML, validated before any training (see harness.load_config);
a bad config or any failed check exits nonzero; a rejected input exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing

from .bounds import BoundInputs, all_bounds
from .gadgets import SingularFitError
from .harness import (
    DecompositionConfig,
    StudyConfig,
    TrainRunConfig,
    gradient_norm_check,
    load_config,
    run_convergence_study,
    run_error_decomposition,
    run_training,
    verify_constructions,
    write_history_csv,
    write_json_report,
    write_study_csv,
)
from .networks import load_network, save_network
from .sampling import _sample_shape, rng_stream
from .training import TrainingDivergedError


def _emit(report: dict, out: str | None) -> None:
    write_json_report(report, out)
    if out:
        print(f"wrote {out}")


def _cmd_construct_verify(args) -> int:
    report = verify_constructions(seed=args.seed)
    _emit(report, args.out)
    return 0 if report["all_passed"] else 1


def _cmd_verify_gradnet(args) -> int:
    net = load_network(args.netfile)
    shape = _sample_shape(args.probes, net.architecture.input_dim, "--probes")
    pts = rng_stream(args.seed, 3).uniform(-1.5, 1.5, size=shape)
    rel, sizes = gradient_norm_check(net, pts)
    report = {
        "kind": "gradient_norm_verification",
        "netfile": os.path.basename(args.netfile),
        "probes": args.probes,
        "max_rel_error": rel,
        "tolerance": 1e-9,
        "passed": rel <= 1e-9,
        "input_depth": net.architecture.depth,
        "input_width": net.architecture.width,
        "gradnet_depth": sizes["depth"],
        "gradnet_width": sizes["width"],
        "depth_bound": sizes["depth_bound"],
        "width_bound": sizes["width_bound"],
    }
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_train(args) -> int:
    trained, history, summary = run_training(load_config(TrainRunConfig, args.config))
    os.makedirs(args.out, exist_ok=True)
    netfile = os.path.join(args.out, "trained_network.txt")
    save_network(trained, netfile)
    write_history_csv(history, os.path.join(args.out, "train_history.csv"))
    write_json_report(summary, os.path.join(args.out, "train_summary.json"))
    print(f"wrote {netfile}")
    return 0


def _cmd_study(args) -> int:
    report = run_convergence_study(load_config(StudyConfig, args.config))
    os.makedirs(args.out, exist_ok=True)
    write_json_report(report, os.path.join(args.out, "study_report.json"))
    write_study_csv(report, os.path.join(args.out, "study_cells.csv"))
    if report["fit"] is not None:
        print(
            f"fitted h1_err^2 slope {report['fit']['slope']:+.4f} "
            f"(se {report['fit']['slope_se']:.4f}); "
            f"predicted exponent {report['predicted']['h1_sq_rate_exponent']:+.4f}"
        )
    print(f"wrote {os.path.join(args.out, 'study_report.json')}")
    return 0


def _cmd_decompose(args) -> int:
    report = run_error_decomposition(load_config(DecompositionConfig, args.config))
    os.makedirs(args.out, exist_ok=True)
    _emit(report, os.path.join(args.out, "decomposition_report.json"))
    return 0


def _cmd_bounds(args) -> int:
    inputs = BoundInputs(**{f.name: vars(args)[f.name] for f in dataclasses.fields(BoundInputs)})
    _emit(all_bounds(inputs, C_Bc3=args.c_bc3, eps=args.eps), args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ritzlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("construct-verify", help="run the exact-construction suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=_cmd_construct_verify)

    pg = sub.add_parser("verify-gradnet", help="check the gradient-norm transform of a net file")
    pg.add_argument("netfile")
    pg.add_argument("--probes", type=int, default=1000)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=_cmd_verify_gradnet)

    for name, fn, text in (("train", _cmd_train, "train one network per a YAML config"),
                           ("study", _cmd_study, "run a convergence-rate study"),
                           ("decompose", _cmd_decompose, "run an error-decomposition report")):
        pc = sub.add_parser(name, help=text)
        pc.add_argument("config")
        pc.add_argument("--out", default=".")
        pc.set_defaults(fn=fn)

    pb = sub.add_parser("bounds", help="print all theory-bound values as JSON")
    types = typing.get_type_hints(BoundInputs)  # int or float, the bounds left out
    for f in dataclasses.fields(BoundInputs):  # --pdim-constant sets pdim_constant
        pb.add_argument(f"--{f.name.replace('_', '-')}", type=types[f.name],
                        required=f.default is dataclasses.MISSING, default=f.default)
    pb.add_argument("--c-bc3", dest="c_bc3", type=float, default=1.0)
    pb.add_argument("--eps", type=float, default=1.0)
    pb.add_argument("--out", default=None)
    pb.set_defaults(fn=_cmd_bounds)

    args = parser.parse_args(argv)
    return args.fn(args)


def _console_main(argv=None) -> int:
    """main, with an input or file error (every named ritzlab input error is a
    ValueError) printed as one `ritzlab: error: <type>: <message>` line."""
    try:
        return main(argv)
    except (ValueError, SingularFitError, TrainingDivergedError, OSError) as exc:
        print(f"ritzlab: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(_console_main())
