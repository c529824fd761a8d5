"""Partitioned operators, Schur-Feshbach resolvent blocks, decoupling and
reduced-model checks."""

import numpy as np
import pytest

from slhkit import (
    BadParam,
    BlockPartition,
    BlockedOperator,
    SLHModel,
    ShapeError,
    char_blocks,
    char_op,
    identity,
    inverse,
    max_abs,
    partition_operator,
    pauli,
    reassemble_char_blocks,
    reassemble_operator,
    schur_feshbach,
)
from slhkit import zoo
from slhkit.reduction import _worst_over_samples
from conftest import random_complex, random_model


def test_partition_identity_blocks():
    part = BlockPartition(dim=4, slow_indices=(0, 2))
    blocks = partition_operator(identity(4), part)
    assert np.array_equal(blocks.X_ss, identity(2))
    assert np.array_equal(blocks.X_ff, identity(2))
    assert max_abs(blocks.X_sf) == 0.0 and max_abs(blocks.X_fs) == 0.0


def test_partition_pauli_x_scalar_off_blocks():
    part = BlockPartition(dim=2, slow_indices=(0,))
    blocks = partition_operator(pauli("x"), part)
    assert blocks.X_sf.shape == (1, 1) and blocks.X_sf[0, 0] == 1.0
    assert blocks.X_fs[0, 0] == 1.0
    assert blocks.X_ss[0, 0] == 0.0 and blocks.X_ff[0, 0] == 0.0


def test_partition_reassembly_bit_exact(rng):
    X = random_complex(rng, 5, 5)
    part = BlockPartition(dim=5, slow_indices=(1, 3, 4))
    assert np.array_equal(reassemble_operator(partition_operator(X, part), part), X)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partition_operator_cuts_stacked_axes(rng, n):
    # nm x m (a stacked coupling) and nm x nm (an n x n grid of plant blocks)
    part = BlockPartition(dim=5, slow_indices=(3, 0))
    for n_cols in (1, n):
        X = random_complex(rng, n * 5, n_cols * 5)
        rows = {a: part.stacked_rows(n, a) for a in ("slow", "fast")}
        cols = {b: part.stacked_rows(n_cols, b) for b in ("slow", "fast")}
        blocks = partition_operator(X, part)
        for a in ("slow", "fast"):
            for b in ("slow", "fast"):
                assert np.array_equal(blocks.block(a[0], b[0]),
                                      X[np.ix_(rows[a], cols[b])])
        back = reassemble_operator(blocks, part)
        assert back.shape == X.shape and np.array_equal(back, X)
    with pytest.raises(ShapeError):
        partition_operator(np.zeros((6, 5)), part)
    with pytest.raises(ShapeError):
        reassemble_operator(partition_operator(np.zeros((6, 6)),
                                               BlockPartition(dim=6, slow_indices=(0,))),
                            part)


@pytest.mark.parametrize("name, shape", [("X_ss", (5, 2)), ("X_sf", (1, 1)),
                                         ("X_fs", (1, 1)), ("X_ff", (2, 2))])
def test_reassemble_operator_refuses_misshaped_block(rng, name, shape):
    # correct shapes are X_ss 2 x 2, X_sf 2 x 1, X_fs 1 x 2 and X_ff 1 x 1;
    # a (1, 1) off-diagonal block would otherwise broadcast into its place
    part = BlockPartition(dim=3, slow_indices=(0, 2))
    blocks = dict(vars(partition_operator(random_complex(rng, 3, 3), part)))
    blocks[name] = np.ones(shape, dtype=complex)
    with pytest.raises(ShapeError, match=name):
        reassemble_operator(BlockedOperator(**blocks), part)


def test_partition_validation():
    with pytest.raises(BadParam):
        BlockPartition(dim=3, slow_indices=())
    with pytest.raises(BadParam):
        BlockPartition(dim=3, slow_indices=(0, 1, 2))
    with pytest.raises(BadParam, match="distinct"):
        BlockPartition(dim=3, slow_indices=(0, 0))
    with pytest.raises(BadParam, match="cover"):
        BlockPartition(dim=3, slow_indices=(0, 3))


def test_schur_feshbach_decoupled_blocks():
    part = BlockPartition(dim=4, slow_indices=(0, 1))
    K = np.zeros((4, 4), dtype=complex)
    K[:2, :2] = np.diag([-0.5, -1.0])
    K[2:, 2:] = np.diag([-2.0, -3.0])
    s = 1.0 + 0.5j
    R = schur_feshbach(partition_operator(K, part), s)
    assert max_abs(R.D11 - inverse(s * identity(2) - K[:2, :2])) <= 1e-14
    assert max_abs(R.D22 - inverse(s * identity(2) - K[2:, 2:])) <= 1e-14
    assert max_abs(R.D12) == 0.0 and max_abs(R.D21) == 0.0


def test_schur_feshbach_scalar_values():
    part = BlockPartition(dim=2, slow_indices=(0,))
    K = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    R = schur_feshbach(partition_operator(K, part), 2.0)
    assert R.Khat11[0, 0] == pytest.approx(0.5)
    assert R.D11[0, 0] == pytest.approx(1.0 / 1.5)


def test_schur_feshbach_reassembly_matches_direct_inverse(rng):
    for _ in range(10):
        m = int(rng.integers(3, 9))
        k_slow = int(rng.integers(1, m))
        slow = tuple(sorted(rng.choice(m, size=k_slow, replace=False).tolist()))
        part = BlockPartition(dim=m, slow_indices=slow)
        K = random_complex(rng, m, m)
        s = complex(rng.uniform(0.2, 2.0), rng.uniform(-2, 2))
        R = schur_feshbach(partition_operator(K, part), s)
        direct = inverse(s * identity(m) - K)
        assert max_abs(R.assemble(part) - direct) <= 1e-10


def test_char_blocks_lossless_reduces_to_scattering_blocks(rng):
    model = random_model(rng, 2, 4)
    model = SLHModel(S=model.S, L=np.zeros_like(model.L), H=model.H)
    part = BlockPartition(dim=4, slow_indices=(0, 3))
    blocks = char_blocks(model, part, 0.8)
    rows_s = part.stacked_rows(2, "slow")
    rows_f = part.stacked_rows(2, "fast")
    assert max_abs(blocks.X_ss - model.S[np.ix_(rows_s, rows_s)]) <= 1e-14
    assert max_abs(blocks.X_sf - model.S[np.ix_(rows_s, rows_f)]) <= 1e-14


def test_char_blocks_thermal_qubit_block_diagonal():
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.3, omega=0.9)
    part = BlockPartition(dim=2, slow_indices=(1,))
    blocks = char_blocks(model, part, 1.2)
    assert max_abs(blocks.X_sf) <= 1e-14
    assert max_abs(blocks.X_fs) <= 1e-14
    T = char_op(model, 1.2)
    assert abs(blocks.X_ss[0, 0] - T[1, 1]) <= 1e-12


def test_char_blocks_reassembly_matches_char_op(rng):
    for _ in range(5):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(3, 6))
        model = random_model(rng, n, m)
        slow = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m)),
                                       replace=False).tolist()))
        part = BlockPartition(dim=m, slow_indices=slow)
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
        blocks = char_blocks(model, part, s)
        assert max_abs(reassemble_char_blocks(blocks, model, part)
                       - char_op(model, s)) <= 1e-10


def test_is_decoupled_cases(rng):
    from slhkit import is_decoupled
    samples = [0.5, 1.0 + 0.4j, 2.5]

    thermal = zoo.build("thermal_qubit", gamma=1.0, n=0.2, omega=0.4)
    part = BlockPartition(dim=2, slow_indices=(1,))
    ok, worst, skipped = is_decoupled(thermal, part, samples)
    assert ok and worst <= 1e-10 and not skipped

    swap = SLHModel(S=pauli("x"), L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    ok, worst, _ = is_decoupled(swap, part, samples)
    assert not ok and worst == pytest.approx(1.0)

    diag_scatter = SLHModel(S=np.diag([1.0, 1j]).astype(complex),
                            L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    ok, worst, _ = is_decoupled(diag_scatter, part, samples)
    assert ok and worst <= 1e-12


def test_is_reduced_model_direct_sum_embedding(rng):
    from slhkit import is_reduced_model
    inner = random_model(rng, 1, 2)
    m_f = 2
    S = np.zeros((4, 4), dtype=complex)
    S[:2, :2] = inner.S
    S[2:, 2:] = identity(m_f)
    L = np.zeros((4, 4), dtype=complex)
    L[:2, :2] = inner.L
    H = np.zeros((4, 4), dtype=complex)
    H[:2, :2] = inner.H
    full = SLHModel(S=S, L=L, H=H)
    part = BlockPartition(dim=4, slow_indices=(0, 1))
    ok, worst, _ = is_reduced_model(full, inner, part, [0.5, 1.0, 1.5 + 0.5j])
    assert ok and worst <= 1e-10, worst


def test_is_reduced_model_detuned_limit_statement():
    from slhkit import is_reduced_model, limit_slh
    params = dict(gamma=1.1, kappa=0.6, delta=2.5, beta=0.9, omega0=0.8)
    fam = zoo.build("detuned_two_level", **params)
    limit = limit_slh(fam)
    w_shift = params["omega0"] - abs(params["beta"]) ** 2 / params["delta"]
    scalar = SLHModel(S=identity(1),
                      L=np.array([[np.sqrt(params["gamma"])]]),
                      H=np.array([[w_shift]]))
    part = BlockPartition(dim=2, slow_indices=(1,))
    samples = [0.4, 1.0, 2.0 + 0.7j]
    ok, worst, _ = is_reduced_model(limit.as_model(), scalar, part, samples)
    assert ok, worst

    wrong = SLHModel(S=identity(1),
                     L=np.array([[np.sqrt(params["gamma"])]]),
                     H=np.array([[w_shift + 0.05]]))
    ok, worst, _ = is_reduced_model(limit.as_model(), wrong, part, samples)
    assert not ok


def test_sampled_verdicts_fail_on_a_nan_residual():
    # a nan at any sample fails the verdict; Python's max would keep 0.0
    residuals = {1.0: 0.0, 2.0: float("nan"), 3.0: 0.0}
    ok, largest, skipped = _worst_over_samples(residuals.get, [1.0, 2.0, 3.0])
    assert not ok and np.isnan(largest) and skipped == ()
