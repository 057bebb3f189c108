import ast
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import ritzlab.cli as cli
import ritzlab.harness as harness
from ritzlab.bounds import BoundInputs, all_bounds
from ritzlab.gadgets import build_square_gadget, prescribe_architecture
from ritzlab.harness import (
    ConfigError,
    DecompositionConfig,
    StudyConfig,
    TrainRunConfig,
    calibrate_spline_rate,
    config_from_dict,
    config_to_dict,
    fit_rate,
    load_config,
    run_convergence_study,
    run_error_decomposition,
    verify_constructions,
    write_json_report,
    write_study_csv,
)
from ritzlab.networks import load_network, save_network
from ritzlab.problems import make_cosine_problem, make_quadratic_problem
from ritzlab.ritz import LossReport, StatisticalGapReport, derived_seed
from ritzlab.sampling import make_sample_set
from ritzlab.training import TrainConfig, init_network, train

from conftest import rng_for

GOLDEN = Path(__file__).resolve().parent / "golden"


def tiny_train(iterations=60):
    return TrainConfig(iterations=iterations, batch_domain=32, batch_boundary=32,
                       eval_every=20)


# ------------------------------------------------------------ fit_rate


def test_fit_rate_exact_power_law():
    pts = [(n, 3.0 * n**-0.5) for n in (64, 256, 1024, 4096)]
    slope, intercept, se = fit_rate(pts)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_constant():
    slope, _, _ = fit_rate([(n, 2.5) for n in (10, 100, 1000)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_noisy_synthetic():
    rng = rng_for(404)
    pts = [(n, n**-0.25 * (1.0 + 0.01 * rng.standard_normal())) for n in
           (64, 128, 256, 512, 1024, 2048, 4096)]
    slope, _, _ = fit_rate(pts)
    assert slope == pytest.approx(-0.25, abs=0.02)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([(10, 1.0), (100, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(10, 1.0), (100, -0.5), (1000, 0.1)])
    with pytest.raises(ValueError, match="distinct sample sizes"):
        fit_rate([(10, 1.0), (10, 0.5), (10, 0.2)])


@pytest.mark.parametrize("bad", [(1, math.nan), (1, math.inf), (math.nan, 1.0)])
def test_fit_rate_rejects_non_finite_points(bad):
    with pytest.raises(ValueError):
        fit_rate([bad, (2, 1.0), (4, 0.5)])


# ------------------------------------------------------------- study


def test_study_single_n_has_no_fit():
    cfg = StudyConfig(problem="cosine", d=1, n_values=(64,), repetitions=1,
                      n_quad=5000, train=tiny_train(), seed=1)
    report = run_convergence_study(cfg)
    assert report["fit"] is None
    assert len(report["cells"]) == 1
    assert report["cells"][0]["architecture"]["layer_dims"][0] == 1


def test_study_rejects_non_increasing_n():
    with pytest.raises(ValueError):
        StudyConfig(n_values=(256, 256))


def test_study_rejects_sample_counts_below_one():
    with pytest.raises(ValueError):
        StudyConfig(n_values=(0, 1, 2))


@pytest.mark.parametrize("n_quad", [1, 0])
def test_study_rejects_n_quad_below_two(n_quad):
    with pytest.raises(ValueError):
        StudyConfig(n_quad=n_quad)


def test_study_deterministic_and_echoes_config(tmp_path):
    cfg = StudyConfig(problem="quadratic", d=1, n_values=(32, 64, 128),
                      repetitions=2, n_quad=4000, train=tiny_train(30), seed=5)
    a = run_convergence_study(cfg)
    b = run_convergence_study(cfg)
    assert a == b
    assert a["config"] == config_to_dict(cfg)
    assert a["rng_algorithm"].startswith("numpy.random.Philox")
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_json_report(a, pa)
    write_json_report(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert a["fit"] is not None


def _rebuilt_bound_row(row):
    """A study theory_bounds row rebuilt from its own inputs by all_bounds."""
    inputs = dict(row["inputs"])
    c_bc3, eps = inputs.pop("C_Bc3"), inputs.pop("eps")
    return {"n": row["n"], "measured_B_median": row["measured_B_median"],
            **all_bounds(BoundInputs(**inputs), c_bc3, eps)}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_golden_study_bound_rows_are_the_bounds_records_of_their_inputs(d):
    report = json.loads((GOLDEN / f"study_d{d}" / "study_report.json").read_text())
    for row in report["theory_bounds"]:
        assert row == _rebuilt_bound_row(row)
        assert (row["inputs"]["n"], row["inputs"]["B"]) == (row["n"], row["measured_B_median"])


def test_study_bound_rows_pass_the_median_measured_B_to_the_covering_forms():
    # at nu = 10 the prescribed net for n = 1024 at d = 1 is (1, 4, 4, 1), whose
    # Pdim bound 9 * 16 * (3 + ln 4) ~ 632 lies below n
    report = run_convergence_study(StudyConfig(
        problem="cosine", d=1, nu=10.0, n_values=(1024,), repetitions=2, n_quad=2000,
        train=tiny_train(10), seed=2))
    (row,) = report["theory_bounds"]
    assert row == _rebuilt_bound_row(row)
    assert row["inputs"]["B"] == np.median([c["measured_B"] for c in report["cells"]]) > 0
    assert "note" not in row and row["dudley_rademacher_bound"] > 0
    arch = report["cells"][0]["architecture"]
    assert (row["inputs"]["depth"], row["inputs"]["width"]) == (arch["depth"], arch["width"])


def test_study_csv_schema(tmp_path):
    cfg = StudyConfig(problem="cosine", d=1, n_values=(32,), repetitions=1,
                      n_quad=3000, train=tiny_train(20), seed=6)
    report = run_convergence_study(cfg)
    path = tmp_path / "cells.csv"
    write_study_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,rep,h1_err,h1_err_se,l2_err,excess,loss_total"
    assert len(lines) == 2


def test_study_config_yaml_roundtrip(tmp_path):
    cfg = StudyConfig(problem="cosine", d=2, n_values=(128, 256, 512),
                      repetitions=2, seed=3, train=TrainConfig(iterations=10))
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config_to_dict(cfg)))
    loaded = load_config(StudyConfig, path)
    assert loaded == cfg


# ------------------------------------------------------- config files

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the config class each command loads, by config file name prefix
COMMAND_CONFIGS = {"study": StudyConfig, "decompose": DecompositionConfig, "train": TrainRunConfig}
MINIMAL = {
    StudyConfig: {},
    DecompositionConfig: {},
    TrainRunConfig: {"problem": "cosine", "d": 1, "n": 64},
}
# the required fields of every config class
REQUIRED = {**MINIMAL, BoundInputs: {"depth": 2, "width": 3, "d": 1, "n": 100}}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    cls = COMMAND_CONFIGS[path.name.split("_")[0]]
    assert isinstance(load_config(cls, path), cls)


@pytest.mark.parametrize("cls", list(MINIMAL), ids=lambda c: c.__name__)
@pytest.mark.parametrize("case,key", [
    ("unknown_key", "n_value"),
    ("unknown_train_key", "n_qaud"),
    ("unknown_train_key", "resample"),  # the per-step resampling mode is gone
    ("empty_file", "mapping"),
])
def test_config_errors_name_the_key(tmp_path, cls, case, key):
    raw = dict(MINIMAL[cls])
    if case == "unknown_key":
        raw[key] = 1
    elif case == "unknown_train_key":
        raw["train"] = {"iterations": 10, key: 1}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw) if case != "empty_file" else "")
    with pytest.raises(ConfigError, match=key):
        load_config(cls, path)


@pytest.mark.parametrize("cls,raw,key", [
    (StudyConfig, {"train": {"iterations": "100"}}, "iterations"),
    (StudyConfig, {"n_values": 256}, "n_values"),
    (StudyConfig, {"repetitions": 2.5}, "repetitions"),
    (StudyConfig, {"n_values": [256, True]}, "n_values"),
    (DecompositionConfig, {"restarts": True}, "restarts"),
    (DecompositionConfig, {"nu": "0.5"}, "nu"),
    (TrainRunConfig, {**MINIMAL[TrainRunConfig], "train": {"adam_betas": [0.9]}}, "adam_betas"),
])
def test_config_values_must_fit_their_types(tmp_path, cls, raw, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=key):
        load_config(cls, path)


def test_config_accepts_int_for_float():
    cfg = config_from_dict(StudyConfig, {"nu": 1, "train": {"learning_rate": 1}})
    assert cfg.nu == 1 and cfg.train.learning_rate == 1


@pytest.mark.parametrize("cls,bad", [
    (StudyConfig, {"d": 0}),
    (StudyConfig, {"nu": math.nan}),
    (DecompositionConfig, {"nu": -1.0}),
    (TrainRunConfig, {"d": 0}),
    (TrainRunConfig, {"n_quad": 1}),
    (DecompositionConfig, {"n_quad": 2**27 + 1}),
    (StudyConfig, {"n_values": (0, 4)}),
    (StudyConfig, {"n_values": (8, 4)}),
    (StudyConfig, {"n_values": ()}),
    (TrainConfig, {"iterations": -1}),
    (TrainConfig, {"optimizer": "lbfgs"}),
    (TrainConfig, {"lr_decay": 0.0}),
    (TrainConfig, {"adam_betas": (0.9, 1.0)}),
    (TrainConfig, {"adam_eps": 0.0}),
    (BoundInputs, {"depth": 0}),
    (BoundInputs, {"B": -1.0}),
    (BoundInputs, {"c3": 0.0}),
    (StudyConfig, {"problem": "sine"}),
    (StudyConfig, {"n_quad": 2**26 + 1, "d": 2}),
    (TrainRunConfig, {"n": 2**27 + 1}),
    (DecompositionConfig, {"n": 10**6, "d": 3}),
    (StudyConfig, {"n_values": (256, 2**27 + 1)}),
    (StudyConfig, {"n_values": (256, 10**7), "d": 2}),
    (DecompositionConfig, {"spline_level": 8, "d": 2}),
])
def test_config_range_errors_are_config_errors_naming_the_field(cls, bad):
    # every rule of a config field fails at construction with ConfigError; d and
    # nu were accepted here and failed only once the run started
    with pytest.raises(ConfigError, match=next(iter(bad))):
        cls(**{**REQUIRED.get(cls, {}), **bad})


def test_unknown_problem_is_refused_before_any_cell_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "train", lambda *args: pytest.fail("a cell trained"))
    path = tmp_path / "study.yaml"
    path.write_text(yaml.safe_dump({"problem": "sine"}))
    with pytest.raises(ConfigError, match="problem"):
        run_convergence_study(load_config(StudyConfig, path))


@pytest.mark.slow
def test_shipped_decomposition_is_conclusive_and_satisfied():
    report = run_error_decomposition(
        load_config(DecompositionConfig, CONFIGS / "decompose_cosine_d1.yaml"))
    assert report["decomposition_check_conclusive"] is True
    assert report["decomposition_check_satisfied"] is True


def test_config_post_inits_leave_bounds_to_the_annotations():
    # a lower bound lives on the field's annotation, where _check_field_types
    # applies it; a __post_init__ keeps only the rules a bound cannot express
    src = Path(harness.__file__).parent
    found = [f"{name}:{node.lineno}" for name in ("training.py", "harness.py", "bounds.py")
             for cls in ast.walk(ast.parse((src / name).read_text()))
             if isinstance(cls, ast.FunctionDef) and cls.name == "__post_init__"
             for node in ast.walk(cls) if isinstance(node, ast.Name)
             and node.id in ("_as_int", "_as_real")]
    assert not found, f"a __post_init__ checks a range by hand at {', '.join(found)}"


@pytest.mark.parametrize("key", ["problem", "d", "n"])
def test_train_run_config_requires_problem_d_and_n(tmp_path, key):
    raw = dict(MINIMAL[TrainRunConfig])
    del raw[key]
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=rf"missing required TrainRunConfig key\(s\): {key}$"):
        load_config(TrainRunConfig, path)


@pytest.mark.parametrize("cls,bad", [
    (DecompositionConfig, {"nu": -1.0}),
    (DecompositionConfig, {"n": 0}),
    (DecompositionConfig, {"n_quad": 1}),
    (DecompositionConfig, {"spline_level": 0}),
    (DecompositionConfig, {"restarts": 0}),
    (TrainRunConfig, {"n": 0}),
    (TrainRunConfig, {"n_quad": 1}),
    (StudyConfig, {"n_values": ()}),
])
def test_configs_reject_bad_values_at_construction(cls, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        cls(**{**MINIMAL[cls], **bad})


@pytest.mark.parametrize("cls,bad", [
    (TrainRunConfig, {"d": 2.0}),
    (TrainRunConfig, {"n_quad": True}),
    (StudyConfig, {"repetitions": 2.5}),
    (StudyConfig, {"n_values": (256, 1024.0)}),
    (DecompositionConfig, {"spline_level": 2.0}),
    (DecompositionConfig, {"restarts": True}),
])
def test_python_built_configs_reject_non_int_counts(cls, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        cls(**{**MINIMAL[cls], **bad})


@pytest.mark.parametrize("cls,bad", [
    (TrainConfig, {"learning_rate": "0.1"}),
    (TrainConfig, {"lr_decay": None}),
    (StudyConfig, {"nu": "0"}),
    (StudyConfig, {"problem": 3}),
    (StudyConfig, {"train": {"iterations": 3}}),
    (DecompositionConfig, {"nu": None}),
    (TrainRunConfig, {"nu": "x"}),
])
def test_python_built_configs_reject_wrong_types(cls, bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        cls(**{**MINIMAL.get(cls, {}), **bad})


def test_python_built_configs_turn_lists_into_tuples():
    assert StudyConfig(n_values=[16, 32]).n_values == (16, 32)
    assert TrainConfig(adam_betas=[0.9, 0.99]).adam_betas == (0.9, 0.99)


# ------------------------------------------------------- decomposition


def test_decomposition_exactly_representable_target():
    # quadratic u* lies in the order-3 spline span, so the approximation
    # proxy collapses to rounding level
    cfg = DecompositionConfig(problem="quadratic", d=1, n=64, spline_level=2,
                              restarts=1, n_quad=5000,
                              train=tiny_train(40), seed=7)
    report = run_error_decomposition(cfg)
    assert report["e_app_proxy"] <= 1e-8
    assert report["e_opt_proxy"] >= 0.0
    assert report["e_sta_proxy"] >= 0.0
    assert set(report["e_sta_gap_per_term"]) >= {
        "mean_abs_gap", "grad_term", "mass_term", "forcing_term", "boundary_term"
    }


def test_decomposition_single_restart_has_zero_optimization_proxy():
    # the only restart would rerun the trained net, so none is trained
    cfg = DecompositionConfig(problem="cosine", d=1, n=64, spline_level=2,
                              restarts=1, n_quad=4000,
                              train=tiny_train(30), seed=8)
    assert run_error_decomposition(cfg)["e_opt_proxy"] == 0.0
    with pytest.raises(ValueError, match="restarts"):
        run_error_decomposition(DecompositionConfig(restarts=0, train=tiny_train(10)))


def test_decomposition_optimization_proxy_is_best_of_restarts():
    # restart k trains from seed cell_seed + k on the cell's samples; restart 0 is the cell
    train_cfg = TrainConfig(iterations=60, batch_domain=32, batch_boundary=32, eval_every=10)
    cfg = DecompositionConfig(problem="cosine", d=1, n=128, spline_level=2, restarts=3,
                              n_quad=5000, train=train_cfg, seed=0)
    report = run_error_decomposition(cfg)

    p = make_cosine_problem(1)
    arch = prescribe_architecture(1, 128, 0.0)
    cell_seed = derived_seed(cfg.seed, 0)
    samples = make_sample_set(128, 128, 1, derived_seed(cell_seed, 1))

    def best_loss(seed):
        net0 = init_network(arch, train_cfg.init_scale, seed)
        return train(net0, p, samples, replace(train_cfg, seed=seed))[1].best_loss

    base = report["train_summary"]["best_loss"]
    assert best_loss(cell_seed) == base
    restart_best = min(best_loss(cell_seed + 1), best_loss(cell_seed + 2))
    assert report["e_opt_proxy"] == base - restart_best > 0.0


def test_decomposition_rejects_oversized_spline_fit_before_training(monkeypatch):
    # level 12 at d = 1: 16 385 points x 4 098 basis functions, over the limit;
    # the config refuses it when it is built, so no run starts
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the spline fit was checked")

    monkeypatch.setattr(harness, "_train_cell", no_training)
    with pytest.raises(ConfigError, match="spline_level 12: collocation system too large"):
        run_error_decomposition(DecompositionConfig(spline_level=12, train=tiny_train(10)))


def test_decomposition_deterministic():
    cfg = DecompositionConfig(problem="cosine", d=1, n=64, spline_level=2,
                              restarts=1, n_quad=4000,
                              train=tiny_train(30), seed=8)
    assert run_error_decomposition(cfg) == run_error_decomposition(cfg)


def test_decomposition_slack_combines_every_proxy_standard_error():
    cfg = DecompositionConfig(problem="cosine", d=1, n=64, spline_level=2,
                              restarts=1, n_quad=4000,
                              train=tiny_train(30), seed=8)
    report = run_error_decomposition(cfg)
    lhs_se = min(report["problem"]["c1"], 1.0) * report["h1_err"] * report["h1_err_se"]
    e_app_se = report["e_app_proxy_se"]
    e_sta_se = 2.0 * report["e_sta_gap_per_term"]["mean_abs_gap_se"]
    slack = report["decomposition_check_slack"]
    assert slack == 5.0 * math.hypot(lhs_se, e_app_se, e_sta_se)
    assert slack > 5.0 * math.hypot(lhs_se, e_app_se)
    assert report["decomposition_check_satisfied"] == (
        report["decomposition_lhs"] <= report["decomposition_rhs_proxies"] + slack)


@pytest.mark.parametrize("n, iterations, satisfied, conclusive", [
    (64, 30, False, False), (256, 300, False, False), (256, 1000, True, True)])
def test_decomposition_check_is_conclusive_only_when_it_can_fail(n, iterations, satisfied,
                                                                 conclusive):
    # a slack of at least the proxies lets any lhs >= 0 pass the check; and
    # e_sta_proxy (one fixed net's gap) and e_opt_proxy (best of restarts) are
    # lower values of their terms, so a failed check (256 points, 300 steps:
    # slack 0.04 < proxies 0.73 < lhs 0.87) shows no failed inequality
    cfg = DecompositionConfig(problem="cosine", d=1, n=n, spline_level=2, restarts=1, n_quad=4000,
                              train=tiny_train(iterations), seed=8)
    report = run_error_decomposition(cfg)
    flag = report["decomposition_check_conclusive"]
    assert type(flag) is bool and flag is conclusive
    assert report["decomposition_check_satisfied"] is satisfied
    assert flag == (satisfied
                    and report["decomposition_check_slack"] < report["decomposition_rhs_proxies"])


def test_decomposition_requires_analytic_energy():
    cfg = DecompositionConfig(problem="cosine", d=1, n=64, train=tiny_train(10))
    # both shipped problems have analytic energy; simulate a missing one
    from ritzlab import harness
    from ritzlab.problems import Problem, make_cosine_problem

    base = make_cosine_problem(1)
    stripped = Problem(name="cosine", d=1, w=base.w, f=base.f, g=base.g,
                       u_star=base.u_star, grad_u_star=base.grad_u_star,
                       c1=base.c1, c2=base.c2, c3=base.c3, w_sup=base.w_sup)
    orig = harness.problem_by_name
    harness.problem_by_name = lambda name, d: stripped
    try:
        with pytest.raises(ValueError):
            run_error_decomposition(cfg)
    finally:
        harness.problem_by_name = orig


# --------------------------------------------- verification and rates


def test_verify_constructions_all_pass():
    report = verify_constructions(seed=1)
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"square_gadget", "product_gadget", "gradient_norm_network"} <= names
    assert report["spline_fit_rate"]["calibrated_C"] > 0


def test_each_construction_check_names_its_error_as_relative_or_absolute():
    checks = verify_constructions(seed=1)["checks"]
    keys = {c["name"]: {"max_abs_error", "max_rel_error"} & set(c) for c in checks}
    assert all(len(k) == 1 for k in keys.values())
    relative = {name for name, k in keys.items() if k == {"max_rel_error"}}
    assert relative == {"square_gadget", "product_gadget", "gradient_norm_network"}


def test_calibrated_c_is_reported_not_hardcoded():
    a = calibrate_spline_rate(levels=(2, 3), n_quad=10_000, seed=1)
    b = calibrate_spline_rate(levels=(2, 3, 4), n_quad=10_000, seed=1)
    assert a["calibrated_C"] > 0
    assert b["calibrated_C"] > 0
    assert len(a["errors"]) == 2 and len(b["errors"]) == 3


# ----------------------------------------------------------------- CLI


def test_cli_runs_each_command_through_one_public_harness_entry():
    # train, study and decompose each call one run_* entry, and write_json_report
    # owns the report format, so cli.py builds no run and writes no JSON itself
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [f"{alias.name}:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("harness", "ritzlab.harness")
               for alias in node.names if alias.name.startswith("_")]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used |= {node.attr} | ({f"{node.value.id}.{node.attr}"}
                                   if isinstance(node.value, ast.Name) else set())
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used |= {alias.name for alias in node.names}
    banned = used & {"prescribe_architecture", "problem_by_name", "load_yaml", "json.dump",
                     "json.dumps"}
    assert not private, f"cli.py imports private harness names: {', '.join(private)}"
    assert not banned, f"cli.py uses {', '.join(sorted(banned))}: go through the harness"


def test_cli_bounds_exit_zero(capsys):
    rc = cli.main(["bounds", "--depth", "4", "--width", "32", "--d", "2",
                   "--n", "1000000", "--nu", "0.01"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pdim_bound"] == pytest.approx(122318.617, abs=0.01)
    assert out["statistical_error_bound"] == pytest.approx(9.456, abs=0.01)

    # B = 0 with n > Pdim: the covering and Rademacher forms need B > 0
    rc = cli.main(["bounds", "--depth", "2", "--width", "3", "--d", "1",
                   "--n", "100000", "--B", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dudley_rademacher_bound"] is None and out["log_covering_bound"] is None
    assert "B = 0" in out["note"]


def test_cli_construct_verify(tmp_path, capsys):
    out = tmp_path / "cv.json"
    rc = cli.main(["construct-verify", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]


def test_cli_verify_gradnet(tmp_path, capsys):
    netfile = tmp_path / "sq.txt"
    save_network(build_square_gadget(), netfile)
    rc = cli.main(["verify-gradnet", str(netfile), "--probes", "200"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_cli_verify_gradnet_needs_a_probe(tmp_path):
    netfile = tmp_path / "sq.txt"
    save_network(build_square_gadget(), netfile)
    with pytest.raises(ValueError, match="--probes"):
        cli.main(["verify-gradnet", str(netfile), "--probes", "0"])


@pytest.mark.parametrize("flag,value,name", [
    ("--B", "nan", "B"),
    ("--eps", "nan", "eps"),
    ("--nu", "nan", "nu"),
    ("--c-bc3", "inf", "C_Bc3"),
])
def test_cli_bounds_rejects_non_finite_inputs(flag, value, name, tmp_path, capsys):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        cli.main(["bounds", "--depth", "2", "--width", "3", "--d", "1", "--n", "100000",
                  flag, value])
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError):
        write_json_report({name: float(value)}, tmp_path / "report.json")


def test_rejected_report_writes_nothing(tmp_path, capsys):
    # the text is built before the file opens: no half-written report, no
    # overwritten old one, nothing on stdout
    bad = {"a": 1.0, "b": math.inf}
    with pytest.raises(ValueError):
        write_json_report(bad, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()
    old = tmp_path / "old.json"
    write_json_report({"a": 1.0}, old)
    before = old.read_bytes()
    with pytest.raises(ValueError):
        write_json_report(bad, old)
    assert old.read_bytes() == before
    capsys.readouterr()
    with pytest.raises(ValueError):
        write_json_report(bad, None)
    assert capsys.readouterr().out == ""


def test_cli_study_and_decompose(tmp_path, capsys):
    study_cfg = {
        "problem": "cosine", "d": 1, "n_values": [32, 64, 128], "repetitions": 1,
        "n_quad": 3000, "seed": 2,
        "train": {"iterations": 30, "batch_domain": 32, "batch_boundary": 32,
                  "eval_every": 10},
    }
    cfg_path = tmp_path / "study.yaml"
    cfg_path.write_text(yaml.safe_dump(study_cfg))
    rc = cli.main(["study", str(cfg_path), "--out", str(tmp_path / "study")])
    assert rc == 0
    report = json.loads((tmp_path / "study" / "study_report.json").read_text())
    assert report["kind"] == "convergence_study"
    assert (tmp_path / "study" / "study_cells.csv").exists()

    dec_cfg = {
        "problem": "quadratic", "d": 1, "n": 32, "spline_level": 2,
        "restarts": 1, "n_quad": 3000, "seed": 2,
        "train": {"iterations": 20, "batch_domain": 32, "batch_boundary": 32,
                  "eval_every": 10},
    }
    dec_path = tmp_path / "dec.yaml"
    dec_path.write_text(yaml.safe_dump(dec_cfg))
    rc = cli.main(["decompose", str(dec_path), "--out", str(tmp_path / "dec")])
    assert rc == 0
    assert (tmp_path / "dec" / "decomposition_report.json").exists()


def test_cli_train(tmp_path, capsys):
    cfg = {
        "problem": "quadratic", "d": 1, "n": 64, "n_quad": 2000, "seed": 4,
        "train": {"iterations": 30, "batch_domain": 32, "batch_boundary": 32,
                  "eval_every": 10},
    }
    path = tmp_path / "train.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = cli.main(["train", str(path), "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "trained_network.txt").exists()
    history = (tmp_path / "run" / "train_history.csv").read_text().splitlines()
    assert history[0] == "iteration,loss"
    assert [ln.split(",")[0] for ln in history[1:]] == ["0", "10", "20", "30"]
    summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
    assert summary["train_summary"]["n_checkpoints"] >= 2


def test_cli_train_keeps_the_readme_seed_convention(tmp_path, capsys):
    # seed draws the samples and the initial net, train.seed the minibatches
    cfg = {
        "problem": "quadratic", "d": 1, "n": 64, "n_quad": 2000, "seed": 4,
        "train": {"iterations": 30, "batch_domain": 32, "batch_boundary": 32,
                  "eval_every": 10, "seed": 9},
    }
    path = tmp_path / "train.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["train", str(path), "--out", str(tmp_path / "run")]) == 0

    tcfg = TrainConfig(**cfg["train"])
    samples = make_sample_set(64, 64, 1, derived_seed(4, 1))
    net0 = init_network(prescribe_architecture(1, 64, 0.0), tcfg.init_scale, 4)
    trained, _ = train(net0, make_quadratic_problem(1), samples, tcfg)
    save_network(trained, tmp_path / "by_hand.txt")
    assert ((tmp_path / "run" / "trained_network.txt").read_text()
            == (tmp_path / "by_hand.txt").read_text())


def test_cli_train_clamps_batches_to_n(tmp_path, capsys):
    # the default batches of 256 exceed n = 100; they are clamped as in a study cell
    cfg = {
        "problem": "cosine", "d": 1, "n": 100, "n_quad": 2000, "seed": 4,
        "train": {"iterations": 20, "eval_every": 10, "seed": 9},
    }
    path = tmp_path / "train.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["train", str(path), "--out", str(tmp_path / "run")]) == 0

    tcfg = TrainConfig(**cfg["train"], batch_domain=100, batch_boundary=100)
    samples = make_sample_set(100, 100, 1, derived_seed(4, 1))
    net0 = init_network(prescribe_architecture(1, 100, 0.0), tcfg.init_scale, 4)
    trained, _ = train(net0, make_cosine_problem(1), samples, tcfg)
    save_network(trained, tmp_path / "by_hand.txt")
    assert ((tmp_path / "run" / "trained_network.txt").read_text()
            == (tmp_path / "by_hand.txt").read_text())


def test_cli_study_of_identically_zero_nets_writes_report(tmp_path, capsys):
    # init_scale 0 and learning_rate 0 keep every cell's net at u = 0, so B = 0
    cfg = {
        "problem": "cosine", "d": 1, "n_values": [32], "repetitions": 1, "n_quad": 2000,
        "seed": 3,
        "train": {"learning_rate": 0.0, "init_scale": 0.0, "iterations": 4,
                  "batch_domain": 32, "batch_boundary": 32, "eval_every": 2},
    }
    path = tmp_path / "zero.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["study", str(path), "--out", str(tmp_path / "zero")]) == 0
    report = json.loads((tmp_path / "zero" / "study_report.json").read_text())
    assert report["cells"][0]["measured_B"] == 0.0
    assert report["theory_bounds"][0]["measured_B_median"] == 0.0


# The README's names of the loss split and of the per-term statistical gap.
README_LOSS_KEYS = {"total", "grad_term", "mass_term", "forcing_term", "boundary_term"}
README_GAP_KEYS = README_LOSS_KEYS - {"total"} | {
    "mean_abs_gap", "mean_abs_gap_se", "n", "n_quad", "method"}


def test_record_built_report_blocks_carry_the_record_fields(tmp_path, capsys):
    study = run_convergence_study(StudyConfig(
        problem="quadratic", d=1, n_values=(32,), repetitions=1, n_quad=2000,
        train=tiny_train(10), seed=6))
    assert set(study["cells"][0]["loss"]) == set(LossReport._fields) == README_LOSS_KEYS

    cfg = {"problem": "quadratic", "d": 1, "n": 32, "n_quad": 2000, "seed": 6,
           "train": {"iterations": 10, "batch_domain": 32, "batch_boundary": 32}}
    path = tmp_path / "train.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["train", str(path), "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "train_summary.json").read_text())
    assert set(summary["loss"]) == set(LossReport._fields)

    dec = run_error_decomposition(DecompositionConfig(
        problem="quadratic", d=1, n=32, spline_level=2, restarts=1,
        n_quad=2000, train=tiny_train(10), seed=6))
    assert set(dec["e_sta_gap_per_term"]) == set(StatisticalGapReport._fields) == README_GAP_KEYS


def run_python(*args, **env_vars):
    """A fresh interpreter, with this checkout's ritzlab on its path and
    env_vars added to its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_a_failing_property_test_does_not_hide_later_failures(tmp_path):
    # with this project's pytest settings; hypothesis' failure report once
    # raised an INTERNALERROR that ended the session after the first failure
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\ndef test_property_fails(x):\n    assert False\n\n"
        "def test_plain_fails():\n    assert False\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
                     "--rootdir", str(tmp_path), str(tmp_path / "test_two.py"))
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout
    for name in ("test_property_fails", "test_plain_fails"):
        assert f"test_two.py::{name}" in run.stdout


def test_cli_train_rejects_misspelled_key_before_training(tmp_path):
    cfg = {"problem": "cosine", "d": 1, "n": 64, "train": {"iterations": 10}, "n_qaud": 10}
    path = tmp_path / "train.yaml"
    path.write_text(yaml.safe_dump(cfg))
    run = run_python("-m", "ritzlab.cli", "train", str(path), "--out", str(tmp_path / "run"))
    assert run.returncode != 0
    assert "ConfigError" in run.stderr and "n_qaud" in run.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args,named", [
    (["bounds", "--depth", "2", "--width", "2", "--d", "1", "--n", "100000", "--B", "1e307"],
     "B 1e+307"),
    (["decompose", "no-such-config.yaml"], "no-such-config.yaml"),
])
def test_cli_reports_a_rejected_input_in_one_line(tmp_path, args, named):
    run = run_python("-m", "ritzlab.cli", *args)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ritzlab: error: "), run.stderr
    assert named in lines[0] and "Traceback" not in run.stderr


def test_import_ritzlab_loads_only_the_core_modules():
    # yaml and the harness, cli and bounds modules would each add tens of
    # milliseconds to every `import ritzlab`
    run = run_python("-c", "import json, sys, ritzlab; print(json.dumps(sorted("
                           "m for m in sys.modules if m.partition('.')[0] in ('ritzlab', 'yaml'))))")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["ritzlab", *(f"ritzlab.{m}" for m in (
        "gadgets", "networks", "problems", "ritz", "sampling", "training"))]


def test_cli_train_does_not_depend_on_the_blas_thread_count(tmp_path):
    # (2,32,32,32,1), 150 Adam steps on the cosine problem
    cfg = {"problem": "cosine", "d": 2, "n": 1024, "n_quad": 4999, "seed": 3,
           "train": {"iterations": 150, "batch_domain": 256, "batch_boundary": 256}}
    path = tmp_path / "train.yaml"
    path.write_text(yaml.safe_dump(cfg))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        run = run_python("-m", "ritzlab.cli", "train", str(path), "--out", str(out),
                         OPENBLAS_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
        net = load_network(out / "trained_network.txt")
        assert net.architecture.layer_dims == (2, 32, 32, 32, 1)
        summary = json.loads((out / "train_summary.json").read_text())
        runs.append((net.flatten_parameters(), summary["train_summary"]["best_loss"]))
    (theta_1, best_1), (theta_2, best_2) = runs
    assert np.array_equal(theta_1, theta_2)
    assert best_1 == best_2


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable cores")
def test_cli_decompose_does_not_depend_on_the_usable_core_count(tmp_path):
    # both estimators on the trained net and on the spline net, with BLAS on
    # one CPU when pinned to it before ritzlab is imported, else on two
    cfg = {"problem": "quadratic", "d": 2, "n": 64, "spline_level": 2, "restarts": 1,
           "n_quad": 3001, "seed": 4,
           "train": {"iterations": 20, "batch_domain": 64, "batch_boundary": 64,
                     "eval_every": 10}}
    path = tmp_path / "dec.yaml"
    path.write_text(yaml.safe_dump(cfg))
    reports = []
    for pin in (True, False):
        out = tmp_path / f"pinned-{pin}"
        run = run_python("-c", "import os, sys\n"
                               f"if {pin}: os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})\n"
                               "from ritzlab.cli import main\n"
                               "sys.exit(main(sys.argv[1:]))",
                         "decompose", str(path), "--out", str(out))
        assert run.returncode == 0, run.stderr
        reports.append((out / "decomposition_report.json").read_bytes())
    assert reports[0] == reports[1]
