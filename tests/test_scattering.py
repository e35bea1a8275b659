"""Delay lines, wave recovery, and the channel power identity."""

import re
import warnings

import numpy as np
import pytest

from dcopt.scattering import ChannelEnd, CouplingMatrix, DelayLine, wave_identity_residual


def test_coupling_matrix_apply():
    e = CouplingMatrix(2.0, 3)
    vec = np.arange(6.0)
    # dense E = [[aI, -aI], [aI, 0]]
    a = 2.0
    dense = np.block([
        [a * np.eye(3), -a * np.eye(3)],
        [a * np.eye(3), np.zeros((3, 3))],
    ])
    # the pair split in its halves (2, n), one edge's batch of one
    assert np.allclose(np.matmul(e.blocks, vec.reshape(2, 3)).ravel(), dense @ vec, atol=1e-14)
    with pytest.raises(ValueError):
        CouplingMatrix(0.0, 3)
    with pytest.raises(ValueError):
        CouplingMatrix(1.0, 0)


def test_coupling_matrix_rejects_non_finite_weight():
    for w in (np.nan, np.inf, [[1.0], [np.nan]]):
        with pytest.raises(ValueError, match="coupling weight must be positive and finite"):
            CouplingMatrix(w, 2)


def test_delay_line_zero_history_then_exact():
    line = DelayLine(delay=0.3, h=0.1, width=2)
    assert line.steps == 3
    sent = [np.array([float(k), -float(k)]) for k in range(6)]
    got = []
    for s in sent:
        got.append(line.pop())
        line.push(s)
    # first 3 pops are the zero history
    for k in range(3):
        assert np.array_equal(got[k], np.zeros(2))
    # then exactly the samples from 3 steps earlier
    for k in range(3, 6):
        assert np.array_equal(got[k], sent[k - 3])


def test_delay_line_rounding_and_errors():
    assert DelayLine(0.25, 0.1, 1).steps == 2   # round(2.5) banker's = 2
    assert DelayLine(0.26, 0.1, 1).steps == 3
    with pytest.raises(ValueError, match="shorter than one step"):
        DelayLine(0.04, 0.1, 1)
    with pytest.raises(ValueError):
        DelayLine(0.3, 0.0, 1)
    line = DelayLine(0.2, 0.1, 2)
    with pytest.raises(ValueError, match="shape"):
        line.push(np.zeros(3))


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e30])
def test_delay_line_names_non_finite_or_over_long_delay(bad):
    # the step count is checked before it is cast to int64, so there is no
    # invalid-cast warning and the message names the value, alone or in a
    # stack of lines
    msg = re.escape(f"delay {bad} s has no finite int64 step count")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delay in (bad, np.array([0.2, bad, 0.3])):
            with pytest.raises(ValueError, match=msg):
                DelayLine(delay, 0.1, 1)


def test_delay_line_time_skew_check():
    line = DelayLine(0.2, 0.1, 1)
    for k, t in enumerate((0.0, 0.1)):
        line.pop(t)
        line.push(np.array([float(k)]), t)
    with pytest.raises(ValueError, match="skew"):
        line.pop(0.4)
    with pytest.raises(ValueError, match="skew"):
        line.push(np.array([3.0]), 0.4)


def test_recover_frozen_oracle():
    # a = 1, eta = 1, zero local state, s_in = sqrt(2) * (1, 0):
    # (E + I) r = (2, 0) gives r = (2/3, -2/3), p = E r = (4/3, 2/3)
    end = ChannelEnd(CouplingMatrix(1.0, 1), eta=1.0)
    s_in = np.sqrt(2.0) * np.array([1.0, 0.0])
    r, p, _ = end.recover(s_in, np.zeros(2))
    assert np.allclose(r, [2.0 / 3.0, -2.0 / 3.0], atol=1e-14)
    assert np.allclose(p, [4.0 / 3.0, 2.0 / 3.0], atol=1e-14)


def test_recover_matches_dense_solve():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = float(rng.uniform(0.5, 5.0))
        eta = float(rng.uniform(0.2, 3.0))
        n = int(rng.integers(1, 4))
        end = ChannelEnd(CouplingMatrix(a, n), eta)
        s_in = rng.normal(size=2 * n)
        x = rng.normal(size=n)
        xi = rng.normal(size=n)
        dense = np.block([
            [a * np.eye(n), -a * np.eye(n)],
            [a * np.eye(n), np.zeros((n, n))],
        ])
        rhs = np.sqrt(2.0 * eta) * s_in + dense @ np.concatenate([x, xi])
        r_ref = np.linalg.solve(dense + eta * np.eye(2 * n), rhs)
        p_ref = dense @ (r_ref - np.concatenate([x, xi]))
        r, p, _ = end.recover(s_in, np.concatenate([x, xi]))
        assert np.allclose(r, r_ref, atol=1e-12)
        assert np.allclose(p, p_ref, atol=1e-12)


def test_recover_consistency_with_wave_definition():
    # the recovered pair must reproduce the incoming wave:
    # s_in = (p + eta r) / sqrt(2 eta)
    rng = np.random.default_rng(17)
    end = ChannelEnd(CouplingMatrix(4.0, 2), eta=1.0)
    for _ in range(20):
        s_in = rng.normal(size=4)
        x, xi = rng.normal(size=2), rng.normal(size=2)
        r, p, _ = end.recover(s_in, np.concatenate([x, xi]))
        back = (p + end.eta * r) / np.sqrt(2.0 * end.eta)
        assert np.allclose(back, s_in, atol=1e-12)


def test_wave_identity_residual_zero_on_channel_pairs():
    rng = np.random.default_rng(19)
    end = ChannelEnd(CouplingMatrix(4.0, 2), eta=1.0)
    for _ in range(20):
        s_in = rng.normal(scale=10.0, size=4)
        x, xi = rng.normal(size=2), rng.normal(size=2)
        r, p, s_out = end.recover(s_in, np.concatenate([x, xi]))
        assert abs(wave_identity_residual(s_in, s_out, r, p)) < 1e-12
        assert np.allclose(end.outgoing_wave(r, p), s_out, rtol=0.0, atol=1e-12)


def test_wave_identity_residual_detects_violation():
    s_in = np.array([1.0, 0.0])
    s_out = np.array([0.0, 0.0])
    r = np.array([1.0, 1.0])
    p = np.array([1.0, 1.0])
    # |s_in|^2 - |s_out|^2 = 1 but 2 r^T p = 4
    assert wave_identity_residual(s_in, s_out, r, p) == pytest.approx(-3.0)


def test_channel_end_validation():
    with pytest.raises(ValueError, match="impedance"):
        ChannelEnd(CouplingMatrix(1.0, 1), eta=0.0)


def test_channel_end_rejects_non_finite_eta():
    for eta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            ChannelEnd(CouplingMatrix(1.0, 1), eta=eta)



def test_recover_needs_a_c_contiguous_out():
    # the product is written through a reshape of out, which would copy any
    # other out and leave it unwritten
    rng = np.random.default_rng(23)
    end = ChannelEnd(CouplingMatrix(rng.uniform(0.5, 4.0, size=(3, 1)), 2), eta=1.0)
    s_in, u = rng.normal(size=(2, 3, 4))
    fresh = end.recover(s_in, u)
    for bad in (np.zeros((3, 3, 8))[:, :, :4], np.zeros((4, 3, 3)).T, np.zeros((3, 2, 4))):
        with pytest.raises(ValueError, match=r"out: expected a C-contiguous array of shape "
                                             r"\(3, 3, 4\)"):
            end.recover(s_in, u, bad)
        assert not bad.any()
    out = np.full((3, 3, 4), 7.0)
    assert end.recover(s_in, u, out) is out
    assert fresh.shape == out.shape and out.tobytes() == fresh.tobytes()
