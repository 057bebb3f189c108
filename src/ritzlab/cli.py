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
import json
import os
import sys

from .bounds import BoundInputs, all_bounds
from .gadgets import SingularFitError, prescribe_architecture
from .harness import (
    DecompositionConfig,
    StudyConfig,
    TrainRunConfig,
    _architecture_block,
    _cell_config,
    _train_cell,
    config_from_dict,
    gradient_norm_check,
    load_config,
    load_yaml,
    run_convergence_study,
    run_error_decomposition,
    verify_constructions,
    write_history_csv,
    write_json_report,
    write_study_csv,
)
from .networks import _as_int, load_network, save_network
from .problems import problem_by_name
from .sampling import RNG_ALGORITHM, rng_stream
from .training import TrainingDivergedError


def _emit(report: dict, out: str | None) -> None:
    if out:
        write_json_report(report, out)
        print(f"wrote {out}")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True, allow_nan=False)
        print()


def _cmd_construct_verify(args) -> int:
    report = verify_constructions(seed=args.seed)
    _emit(report, args.out)
    return 0 if report["all_passed"] else 1


def _cmd_verify_gradnet(args) -> int:
    _as_int(args.probes, "--probes", 1)
    net = load_network(args.netfile)
    rng = rng_stream(args.seed, 3)
    pts = rng.uniform(-1.5, 1.5, size=(args.probes, net.architecture.input_dim))
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
    raw = load_yaml(args.config)
    cfg = config_from_dict(TrainRunConfig, raw)
    problem = problem_by_name(cfg.problem, cfg.d)
    arch = prescribe_architecture(problem.d, cfg.n, cfg.nu)
    train_cfg = _cell_config(cfg.train, cfg.n, cfg.train.seed)
    _, trained, history, loss, err = _train_cell(problem, arch, cfg.n, train_cfg, cfg.n_quad,
                                                 cfg.seed)

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    netfile = os.path.join(outdir, "trained_network.txt")
    save_network(trained, netfile)
    write_history_csv(history, os.path.join(outdir, "train_history.csv"))
    summary = {
        "kind": "training_run",
        "config_echo": raw,
        "rng_algorithm": RNG_ALGORITHM,
        "training_protocol_note": "optimizer, initialization and step counts are "
                                  "implementation choices, not theory-mandated",
        "architecture": _architecture_block(arch),
        "loss": loss._asdict(),
        "train_summary": history.summary(),
        "h1_err": err.h1_err,
        "h1_err_se": err.h1_err_se,
        "l2_err": err.l2_err,
        "l2_err_se": err.l2_err_se,
    }
    write_json_report(summary, os.path.join(outdir, "train_summary.json"))
    print(f"wrote {netfile}")
    return 0


def _cmd_study(args) -> int:
    cfg = load_config(StudyConfig, args.config)
    report = run_convergence_study(cfg)
    outdir = args.out or cfg.output_dir or "."
    os.makedirs(outdir, exist_ok=True)
    write_json_report(report, os.path.join(outdir, "study_report.json"))
    write_study_csv(report, os.path.join(outdir, "study_cells.csv"))
    if report["fit"] is not None:
        print(
            f"fitted h1_err^2 slope {report['fit']['slope']:+.4f} "
            f"(se {report['fit']['slope_se']:.4f}); "
            f"predicted exponent {report['predicted']['h1_sq_rate_exponent']:+.4f}"
        )
    print(f"wrote {os.path.join(outdir, 'study_report.json')}")
    return 0


def _cmd_decompose(args) -> int:
    cfg = load_config(DecompositionConfig, args.config)
    report = run_error_decomposition(cfg)
    outdir = args.out or cfg.output_dir or "."
    os.makedirs(outdir, exist_ok=True)
    write_json_report(report, os.path.join(outdir, "decomposition_report.json"))
    print(f"wrote {os.path.join(outdir, 'decomposition_report.json')}")
    return 0


def _cmd_bounds(args) -> int:
    # every BoundInputs field is an option of the same name
    inputs = BoundInputs(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(BoundInputs)})
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

    pt = sub.add_parser("train", help="train one network per a YAML config")
    pt.add_argument("config")
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=_cmd_train)

    ps = sub.add_parser("study", help="run a convergence-rate study")
    ps.add_argument("config")
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=_cmd_study)

    pd = sub.add_parser("decompose", help="run an error-decomposition report")
    pd.add_argument("config")
    pd.add_argument("--out", default=None)
    pd.set_defaults(fn=_cmd_decompose)

    pb = sub.add_parser("bounds", help="print all theory-bound values as JSON")
    pb.add_argument("--depth", type=int, required=True)
    pb.add_argument("--width", type=int, required=True)
    pb.add_argument("--d", type=int, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--B", type=float, default=1.0)
    pb.add_argument("--c3", type=float, default=1.0)
    pb.add_argument("--nu", type=float, default=0.0)
    pb.add_argument("--pdim-constant", dest="pdim_constant", type=float, default=1.0)
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
