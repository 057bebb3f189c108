import math

import numpy as np
import pytest

from ritzlab.problems import (
    Problem,
    make_cosine_problem,
    make_quadratic_problem,
    problem_by_name,
)
from ritzlab.sampling import mc_mean, sample_boundary, sample_domain

from conftest import ProblemDefinitionError, verify_problem


def test_cosine_analytic_energy_d3():
    p = make_cosine_problem(3)
    assert p.analytic_energy == pytest.approx(-8.15220, abs=5e-5)


def test_cosine_analytic_h1_d2():
    p = make_cosine_problem(2)
    assert p.analytic_h1_norm_sq == pytest.approx(1.0 + math.pi**2, rel=1e-12)


def test_cosine_flux_vanishes():
    p = make_cosine_problem(3)
    pts, faces = sample_boundary(100, 3, seed=1)
    assert np.max(np.abs(p.g(pts, faces))) == 0.0


def test_quadratic_point_values():
    p = make_quadratic_problem(2)
    assert p.f(np.array([[0.5, 0.5]]))[0] == pytest.approx(-3.5, abs=1e-14)
    g = p.g(np.array([[1.0, 0.3]]), np.array([[0, 1]]))
    assert g[0] == pytest.approx(2.0, abs=1e-14)
    g0 = p.g(np.array([[0.0, 0.3]]), np.array([[0, 0]]))
    assert g0[0] == 0.0


def test_quadratic_gradient_integral():
    # analytic oracle: int 4 x^2 = 4/3 per axis, so 8/3 in d = 2
    p = make_quadratic_problem(2)
    x = sample_domain(100_000, 2, seed=2)
    est = mc_mean(np.sum(p.grad_u_star(x) ** 2, axis=1), 1.0)
    assert abs(est.value - 8.0 / 3.0) <= 5 * est.std_error


def _mc_ritz_energy_of_exact_solution(p: Problem, n: int, seed: int):
    """Independent MC estimate of the variational energy at u*."""
    x = sample_domain(n, p.d, seed)
    y, faces = sample_boundary(n, p.d, seed)
    dom = mc_mean(
        0.5 * np.sum(p.grad_u_star(x) ** 2, axis=1)
        + 0.5 * p.w(x) * p.u_star(x) ** 2
        - p.u_star(x) * p.f(x),
        1.0,
    )
    bnd = mc_mean(p.u_star(y) * p.g(y, faces), 2.0 * p.d)
    value = dom.value - bnd.value
    se = math.hypot(dom.std_error, bnd.std_error)
    return value, se


@pytest.mark.parametrize("factory,d", [(make_cosine_problem, 1), (make_cosine_problem, 3),
                                       (make_quadratic_problem, 1), (make_quadratic_problem, 2),
                                       (make_quadratic_problem, 3)])
def test_analytic_energy_matches_mc(factory, d):
    p = factory(d)
    value, se = _mc_ritz_energy_of_exact_solution(p, 200_000, seed=3)
    assert abs(value - p.analytic_energy) <= 4 * se


@pytest.mark.parametrize("name,d", [("cosine", 2), ("quadratic", 3)])
def test_verify_problem_passes(name, d):
    p = problem_by_name(name, d)
    rep = verify_problem(p, 1000, seed=4)
    assert rep.max_pde_residual <= 1e-6
    assert rep.max_flux_residual <= 1e-6


def test_verify_problem_flags_corrupted_forcing():
    base = make_cosine_problem(2)
    bad = Problem(
        name="corrupted",
        d=2,
        w=base.w,
        f=lambda x: base.f(x) + 1.0,
        g=base.g,
        u_star=base.u_star,
        grad_u_star=base.grad_u_star,
        c1=base.c1,
        c2=base.c2,
        c3=base.c3,
        w_sup=base.w_sup,
    )
    with pytest.raises(ProblemDefinitionError) as err:
        verify_problem(bad, 1000, seed=5)
    assert "1.0" in str(err.value) or "9.9" in str(err.value) or "residual" in str(err.value)


def test_w_lower_bound_holds():
    for p in (make_cosine_problem(2), make_quadratic_problem(3)):
        x = sample_domain(1000, p.d, seed=6)
        assert p.c1 == 1.0
        assert np.all(p.w(x) >= p.c1)


def test_problem_by_name_rejects_unknown():
    with pytest.raises(ValueError):
        problem_by_name("helmholtz", 2)


@pytest.mark.parametrize("factory", [make_cosine_problem, make_quadratic_problem])
@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_problem_callables_are_row_wise(factory, d):
    # the estimators call them block by block; d = 9 sums rows pairwise
    p = factory(d)
    x = sample_domain(1000, d, seed=6)
    y, faces = sample_boundary(1000, d, seed=6)
    calls = [(p.w, (x,)), (p.f, (x,)), (p.u_star, (x,)), (p.grad_u_star, (x,)), (p.g, (y, faces))]
    for fn, args in calls:
        blocks = [fn(*(a[lo:lo + 256] for a in args)) for lo in range(0, 1000, 256)]
        assert np.concatenate(blocks).tobytes() == fn(*args).tobytes(), fn.__name__
