import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from adgd.core import NumericalError, zero_prox_friendly
from adgd.problems import make_problem
from adgd.prox import (
    SpectralBox,
    affine_indicator,
    dual_entropy_domain,
    nonneg_indicator,
    nuclear_ball_indicator,
    project_affine,
    project_l1_ball,
    project_nonneg,
    project_nuclear_ball,
    project_spectral_box,
    prox_dual_entropy_domain,
)


def l1_project_oracle(v, r):
    """Bisection on the soft threshold; independent of the sort-based route."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > r:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def nuclear_project_oracle(Z, r):
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    return (U * l1_project_oracle(s, r)) @ Vt


# ---------------------------------------------------------------------------
# project_nonneg
# ---------------------------------------------------------------------------

def test_nonneg_clamps():
    assert np.array_equal(project_nonneg(np.array([1.0, -2.0, 0.0])), [1.0, 0.0, 0.0])


def test_nonneg_fixes_feasible():
    v = np.array([0.5, 2.0, 0.0])
    assert np.array_equal(project_nonneg(v), v)


def test_nonneg_all_negative():
    assert np.array_equal(project_nonneg(np.array([-1.0, -3.0])), [0.0, 0.0])


# ---------------------------------------------------------------------------
# project_affine
# ---------------------------------------------------------------------------

def test_affine_hand_example():
    A = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    out = project_affine(np.zeros(2), A, b)
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_affine_fixes_feasible_and_residual():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 10))
    b = A @ rng.normal(size=10)
    g = affine_indicator(A, b)
    z = g.prox(1.0, rng.normal(size=10))
    assert np.linalg.norm(A @ z - b) <= 1e-8 * (1 + np.linalg.norm(b))
    assert np.linalg.norm(g.prox(1.0, z) - z) <= 1e-12 * (1 + np.linalg.norm(z))


def test_affine_idempotent():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(3, 8))
    b = A @ rng.normal(size=8)
    g = affine_indicator(A, b)
    for _ in range(100):
        z = 5 * rng.normal(size=8)
        p = g.prox(1.0, z)
        assert np.linalg.norm(g.prox(1.0, p) - p) <= 1e-10


def test_affine_rank_deficient_rejected():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NumericalError):
        affine_indicator(A, np.array([1.0, 1.0]))


def test_affine_more_rows_than_columns_rejected():
    with pytest.raises(NumericalError):
        affine_indicator(np.ones((3, 2)) + np.eye(3, 2), np.ones(3))


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_affine_matches_cholesky_projection(scale):
    # z - A^+ (Az - b) against z - A^T (A A^T)^-1 (Az - b) through a Cholesky
    # factor of A A^T, on the curve constraints; the tolerance was fixed
    # before the first run
    inst = make_problem("curve", 1, scale)
    m, n = inst.metadata["m"], inst.metadata["n"]
    rng = np.random.default_rng(1)          # make_min_curve's first draw
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n)
    factor = cho_factor(A @ A.T)
    g = inst.composite.g
    rng = np.random.default_rng(11)
    for scale_z in (1e-3, 1.0, 1e3):
        for _ in range(20):
            z = scale_z * rng.normal(size=n)
            p = project_affine(z, A, b)
            assert np.array_equal(g.prox(1.0, z), p)   # the same A and b as the instance
            chol = z - A.T @ cho_solve(factor, A @ z - b)
            assert np.linalg.norm(p - chol) <= 1e-13 * (1 + np.linalg.norm(z))


# ---------------------------------------------------------------------------
# project_spectral_box
# ---------------------------------------------------------------------------

def test_spectral_box_clamps_eigenvalues():
    Z = np.diag([0.05, 5.0, 20.0])
    out = project_spectral_box(Z, 0.1, 10.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [0.1, 5.0, 10.0], atol=1e-12)


def test_spectral_box_interior_fixed_point():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    Z = (Q * rng.uniform(0.2, 9.0, size=6)) @ Q.T
    out = project_spectral_box(Z, 0.1, 10.0)
    assert np.linalg.norm(out - Z) <= 1e-10 * (1 + np.linalg.norm(Z))


def test_spectral_box_output_spectrum_inside():
    rng = np.random.default_rng(6)
    for _ in range(50):
        M = rng.normal(size=(8, 8))
        Z = 3 * (M + M.T)
        w = np.linalg.eigvalsh(project_spectral_box(Z, 0.1, 10.0))
        assert w[0] >= 0.1 - 1e-10 and w[-1] <= 10.0 + 1e-10


def test_spectral_box_rejects_asymmetric():
    Z = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        project_spectral_box(Z, 0.1, 10.0)


# ---------------------------------------------------------------------------
# project_nuclear_ball / project_l1_ball
# ---------------------------------------------------------------------------

def test_nuclear_hand_example():
    Z = np.diag([3.0, 0.0])
    assert np.allclose(project_nuclear_ball(Z, 1.0), np.diag([1.0, 0.0]), atol=1e-12)


def test_nuclear_feasible_unchanged():
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(5, 5))
    Z *= 0.5 / np.linalg.svd(Z, compute_uv=False).sum()
    assert np.linalg.norm(project_nuclear_ball(Z, 1.0) - Z) <= 1e-10


def test_nuclear_norm_bound_holds():
    rng = np.random.default_rng(8)
    for _ in range(50):
        Z = 4 * rng.normal(size=(6, 9))
        out = project_nuclear_ball(Z, 2.5)
        assert np.linalg.svd(out, compute_uv=False).sum() <= 2.5 + 1e-8


def test_nuclear_matches_oracle_small():
    rng = np.random.default_rng(9)
    for _ in range(50):
        Z = 3 * rng.normal(size=(4, 4))
        assert np.linalg.norm(project_nuclear_ball(Z, 1.7)
                              - nuclear_project_oracle(Z, 1.7)) <= 1e-8


def test_l1_hand_example():
    assert np.allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0], atol=1e-12)


def test_l1_feasible_unchanged():
    v = np.array([0.2, -0.3, 0.1])
    assert np.array_equal(project_l1_ball(v, 1.0), v)


def test_l1_boundary_point_unchanged():
    v = np.array([0.5, 0.5])
    assert np.allclose(project_l1_ball(v, 1.0), v, atol=1e-15)


def test_l1_matches_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        v = 3 * rng.normal(size=10)
        assert np.linalg.norm(project_l1_ball(v, 2.0) - l1_project_oracle(v, 2.0)) <= 1e-8


# ---------------------------------------------------------------------------
# dual-entropy domain, zero prox
# ---------------------------------------------------------------------------

def test_dual_entropy_domain_clamps_lambda_block():
    out = prox_dual_entropy_domain(np.array([-1.0, 2.0, 3.0]), m=2)
    assert np.array_equal(out, [0.0, 2.0, 3.0])


def test_dual_entropy_domain_feasible_unchanged():
    v = np.array([0.5, 0.0, -7.0])
    assert np.array_equal(prox_dual_entropy_domain(v, m=2), v)


def test_dual_entropy_domain_mu_free():
    out = prox_dual_entropy_domain(np.array([1.0, -5.0]), m=1)
    assert out[1] == -5.0


def test_prox_zero_identity_and_alpha_free():
    prox = zero_prox_friendly().prox   # g = 0 of a smooth problem
    z = np.array([1.0, -2.0])
    assert np.array_equal(prox(1.0, z), z)
    assert np.array_equal(prox(100.0, z), prox(1.0, z))


# ---------------------------------------------------------------------------
# shared projection properties
# ---------------------------------------------------------------------------

def _gauss(dim):
    return lambda rng, scale=4.0: scale * rng.normal(size=dim)


def _sym_gauss(n):
    def sample(rng, scale=4.0):
        M = scale * rng.normal(size=(n, n))
        return (0.5 * (M + M.T)).ravel()
    return sample


def _operators():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 9))
    b = A @ rng.normal(size=9)
    return [
        ("nonneg", nonneg_indicator(), _gauss(9)),
        ("affine", affine_indicator(A, b), _gauss(9)),
        ("spectral_box", SpectralBox(4, 0.1, 10.0).indicator(), _sym_gauss(4)),
        ("nuclear_ball", nuclear_ball_indicator((3, 3), 2.0), _gauss(9)),
        ("dual_entropy", dual_entropy_domain(8), _gauss(9)),
    ]


@pytest.mark.parametrize("name,op,sample", _operators())
def test_idempotent_and_nonexpansive(name, op, sample):
    rng = np.random.default_rng(12)
    for _ in range(100):
        z = sample(rng)
        w = sample(rng)
        pz, pw = op.prox(1.0, z), op.prox(1.0, w)
        assert np.linalg.norm(op.prox(1.0, pz) - pz) <= 1e-10
        assert np.linalg.norm(pz - pw) <= np.linalg.norm(z - w) * (1 + 1e-12)


@pytest.mark.parametrize("name,op,sample", _operators())
def test_projection_characterization(name, op, sample):
    # <z - P(z), x - P(z)> <= 0 for every feasible x
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = sample(rng)
        x = op.prox(1.0, sample(rng))
        pz = op.prox(1.0, z)
        assert float((z - pz) @ (x - pz)) <= 1e-9


@pytest.mark.parametrize("name,op,sample", _operators())
def test_indicator_prox_ignores_alpha(name, op, sample):
    rng = np.random.default_rng(14)
    z = sample(rng, 3.0)
    assert np.array_equal(op.prox(1.0, z), op.prox(100.0, z))


@pytest.mark.parametrize("name,op,sample", _operators())
def test_prox_lands_in_domain(name, op, sample):
    rng = np.random.default_rng(15)
    for _ in range(20):
        z = sample(rng, 6.0)
        p = op.prox(1.0, z)
        assert op.value(p) == 0.0
        assert op.value(p.copy()) == 0.0   # a copy takes the full membership test


@pytest.mark.parametrize("op,sample,grow", [
    (SpectralBox(4, 0.1, 10.0).indicator(), _sym_gauss(4), 200.0),
    (nuclear_ball_indicator((3, 3), 2.0), _gauss(9), 2.0),
], ids=["spectral_box", "nuclear_ball"])
def test_remembered_prox_output_is_read_only_and_only_itself(op, sample, grow):
    rng = np.random.default_rng(16)
    p = op.prox(1.0, sample(rng, 6.0))
    with pytest.raises(ValueError):
        p[0] = 1.0
    assert op.value(p) == 0.0
    # after the prox, other points still get the full test
    assert op.value(grow * p) == np.inf
    assert op.value(sample(rng, 100.0)) == np.inf
    q = p.copy()
    q[0] += 100.0
    assert op.value(q) == np.inf
