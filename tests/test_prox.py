import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import adgd.prox
from adgd.core import NumericalError, zero_prox_friendly
from adgd.problems import make_problem
from adgd.prox import (
    SpectralBox,
    affine_indicator,
    certify_eigh,
    nonneg_indicator,
    nuclear_ball_indicator,
    orthonormal_diag,
    project_affine,
    project_l1_ball,
    project_nonneg,
    project_nuclear_ball,
    project_spectral_box,
)
from adgd.solvers import AdGD2, RunConfig, run_solver


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


def _pair(basis):
    """(basis, diag(basis' basis)), the warm pair of a basis that passes the
    orthogonality half of the certificate."""
    d = orthonormal_diag(basis)
    assert d is not None
    return basis, d


def _warm_prox(Z, basis):
    box = SpectralBox(Z.shape[0], 0.1, 10.0)
    box.warm = _pair(basis)
    return box.prox(1.0, Z.ravel()).reshape(Z.shape)


def test_spectral_box_warm_start_that_does_not_certify_is_lapack_bit_for_bit():
    rng = np.random.default_rng(17)
    V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    M = rng.normal(size=(6, 6))
    Z = 4.0 * (M + M.T)
    assert certify_eigh(0.5 * (Z + Z.T), *_pair(V)) is None   # an unrelated basis
    assert np.array_equal(_warm_prox(Z, V), project_spectral_box(Z, 0.1, 10.0))
    # the exact eigenbasis of another input, scaled (Q'Q = 4 I), is never offered:
    # it fails the orthogonality half
    assert orthonormal_diag(2.0 * V) is None


def test_spectral_box_warm_start_certifies_a_repeated_spectrum():
    # the certificate bounds the backward error and the projection is
    # 1-Lipschitz, so a repeated eigenvalue needs no gap to certify
    rng = np.random.default_rng(17)
    V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    repeated = (V * [0.05, 2.0, 2.0, 2.0, 7.0, 20.0]) @ V.T
    repeated = 0.5 * (repeated + repeated.T)
    ref = project_spectral_box(repeated, 0.1, 10.0)
    for basis in (np.linalg.eigh(repeated)[1], V):   # its own basis, the exact one
        assert certify_eigh(repeated, *_pair(basis)) is not None
        out = _warm_prox(repeated, basis)
        assert np.max(np.abs(out - ref)) <= 1e-12 * (1.0 + np.max(np.abs(repeated)))
        w = np.linalg.eigvalsh(out)
        assert w[0] >= 0.1 - 1e-12 and w[-1] <= 10.0 + 1e-12


def test_spectral_box_warm_start_certifies_near_its_basis():
    # the exact eigenbasis certifies; one perturbed by 1e-6 does not, and the
    # prox is then LAPACK's bit for bit
    rng = np.random.default_rng(18)
    V, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    Z = (V * np.linspace(-3.0, 14.0, 8)) @ V.T
    Z = 0.5 * (Z + Z.T)
    w, Q = certify_eigh(Z, *_pair(V))
    assert Q is V
    assert np.allclose(w, np.linspace(-3.0, 14.0, 8), rtol=0, atol=1e-13)
    M = rng.normal(size=(8, 8))
    basis = np.linalg.eigh(Z + 1e-6 * (M + M.T))[1]
    assert certify_eigh(Z, *_pair(basis)) is None
    assert np.array_equal(_warm_prox(Z, basis), project_spectral_box(Z, 0.1, 10.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_box_non_finite_input_takes_the_lapack_path(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(adgd.prox, "certify_eigh", lambda *a: calls.append(a))
    rng = np.random.default_rng(19)
    M = rng.normal(size=(5, 5))
    Z = M + M.T
    basis = np.linalg.eigh(Z)[1]

    def outcome(project, Z):   # LAPACK may raise on a non-finite input
        try:
            with np.errstate(invalid="ignore"):
                return project(Z)
        except np.linalg.LinAlgError as exc:
            return str(exc)

    for i, j in ((0, 0), (1, 3)):
        Zb = Z.copy()
        Zb[i, j] = Zb[j, i] = bad
        warm = outcome(lambda Z: _warm_prox(Z, basis), Zb)
        cold = outcome(lambda Z: project_spectral_box(Z, 0.1, 10.0), Zb)
        assert np.array_equal(warm, cold, equal_nan=not isinstance(cold, str))
    Z[2, 2] = 1.0
    _warm_prox(Z, basis)
    assert len(calls) == 1   # the finite input alone is offered to the certificate


def _counted_gram(monkeypatch):
    """The bases whose orthogonality is tested (``orthonormal_diag``), in order."""
    tested, gram = [], adgd.prox.orthonormal_diag
    monkeypatch.setattr(adgd.prox, "orthonormal_diag", lambda Q: tested.append(Q) or gram(Q))
    return tested


def test_spectral_box_never_keeps_a_basis_that_fails_orthogonality(monkeypatch):
    # a LAPACK basis that fails the orthogonality half (here 2 V, Q'Q = 4 I)
    # is never offered: each arm tests it again and leaves ``warm`` None, and
    # no prox reaches the certificate
    rng = np.random.default_rng(17)
    V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    Z = (V * [0.05, 2.0, 3.0, 4.0, 7.0, 20.0]) @ V.T
    Z = 0.5 * (Z + Z.T)
    bad = 2.0 * V
    assert orthonormal_diag(bad) is None
    eigh, w = np.linalg.eigh, np.linalg.eigvalsh(Z)
    factored, offered = [], []
    monkeypatch.setattr(np.linalg, "eigh", lambda Z: factored.append(Z) or (w, bad))
    monkeypatch.setattr(adgd.prox, "certify_eigh", lambda *a: offered.append(a))
    tested = _counted_gram(monkeypatch)
    box = SpectralBox(6, 0.1, 10.0)
    box.prox(1.0, Z.ravel())
    for _ in range(2):   # an arm at another point tests nothing
        assert not box.arm(Z.ravel()) and box.warm is None and not tested
    for k in range(3):
        assert box.arm(box.x) and box.warm is None
        assert len(tested) == 2 * k + 1 and tested[-1] is bad
        assert box.arm(box.x) and box.warm is None   # a second arm tests it again
        assert len(tested) == 2 * k + 2 and tested[-1] is bad
        box.prox(1.0, Z.ravel())
        assert box.Q is bad and len(factored) == k + 2
    assert not offered
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    box.prox(1.0, Z.ravel())
    assert np.array_equal(box.x.reshape(6, 6), project_spectral_box(Z, 0.1, 10.0))


def test_spectral_box_factorization_is_read_only():
    # the box keeps diag(Q'Q) beside Q, so Q and c, like x, cannot be
    # written; the basis is LAPACK's, kept by the certified prox
    box = SpectralBox(4, 0.1, 10.0)
    z = _sym_gauss(4)(np.random.default_rng(20))
    x = box.prox(1.0, z)
    Q = box.Q
    box.arm(x)
    box.prox(1.0, z)
    assert box.Q is Q   # the second prox kept the first one's basis
    for a in (box.x, box.Q, box.c):
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_spectral_box_offers_a_pair_set_from_outside_as_given(monkeypatch):
    # a pair (V, diag(V'V)) set through ``warm`` reaches the certificate as it
    # is, untested by the box; when it certifies, the box keeps V with that
    # diagonal, and the arms that follow test nothing; a LAPACK basis is
    # tested at its first arm, once
    rng = np.random.default_rng(18)
    V, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    Z = (V * np.linspace(-3.0, 14.0, 8)) @ V.T
    Z = 0.5 * (Z + Z.T)
    M = rng.normal(size=(8, 8))
    other = M + M.T   # V is orthonormal but not its eigenbasis
    pair = _pair(V)
    tested = _counted_gram(monkeypatch)
    offered, certify = [], adgd.prox.certify_eigh
    monkeypatch.setattr(adgd.prox, "certify_eigh",
                        lambda Z, Q, d: offered.append((Q, d)) or certify(Z, Q, d))
    box = SpectralBox(8, 0.1, 10.0)
    box.warm = pair
    out = box.prox(1.0, other.ravel()).reshape(8, 8)
    assert np.array_equal(out, project_spectral_box(other, 0.1, 10.0))
    assert box.Q is not V and not tested
    for _ in range(2):
        box.arm(box.x)
    assert len(tested) == 1 and tested[0] is box.Q   # LAPACK's basis, tested once
    box.warm = pair
    box.prox(1.0, Z.ravel())
    assert box.Q is V
    for _ in range(3):
        box.arm(box.x)
        assert box.warm[0] is V and box.warm[1] is pair[1]
        box.prox(1.0, Z.ravel())
    assert box.Q is V and len(tested) == 1
    assert len(offered) == 5 and all(Q is V and d is pair[1] for Q, d in offered)


def test_mle_second_run_on_an_instance_tests_its_own_basis(monkeypatch):
    # each run's first prox is LAPACK's, and that basis, a new object, is the
    # one basis the run tests for orthogonality
    tested = _counted_gram(monkeypatch)
    inst = make_problem("mle", 1)
    bases, eigh = [], np.linalg.eigh

    def recorded_eigh(Z):
        w, Q = eigh(Z)
        bases.append(Q)
        return w, Q

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    cfg = RunConfig(max_iter=30, record_rows=False, record_trace=False)
    for run in (1, 2):
        run_solver(inst, AdGD2(), cfg)
        assert len(bases) == len(tested) == run
        assert all(Q is B for Q, B in zip(tested, bases))
    assert bases[0] is not bases[1]


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
    out = nonneg_indicator(2).prox(1.0, np.array([-1.0, 2.0, 3.0]))
    assert np.array_equal(out, [0.0, 2.0, 3.0])


def test_dual_entropy_domain_feasible_unchanged():
    v = np.array([0.5, 0.0, -7.0])
    assert np.array_equal(nonneg_indicator(2).prox(1.0, v), v)


def test_dual_entropy_domain_mu_free():
    out = nonneg_indicator(1).prox(1.0, np.array([1.0, -5.0]))
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
        ("dual_entropy", nonneg_indicator(8), _gauss(9)),
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
