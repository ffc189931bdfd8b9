"""The paper's orderings and discord claims on the whole domain, through the
column kernels.

The acceptance criteria check the orderings at s = 0.04 and s = 0.36 only;
here they are held on seeded lanes spread log-uniformly over s and p1. The
lanes are fixed by seed: a lane that fails is a finding, not noise.
"""

import numpy as np

from seqdisc.core import make_state_pair
from seqdisc.correlations import CorrelationInput, discord_left, discord_right, prop_left_values
from seqdisc.protocols import (
    at_least_one_protocol3_values,
    protocol1_optimal_values,
    protocol2_optimal_values,
    protocol3_optimal_values,
)
from seqdisc.ssd import joint_optimal_values
from seqdisc.sweeps import _P1_GRID, _QUANTITIES

_LANES = 20_000
_TOL = 1e-12


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def _lanes():
    rng = np.random.default_rng(20171)
    s = _log_uniform(rng, 1e-6, 1.0 - 1e-6, _LANES)
    p1 = np.minimum(_log_uniform(rng, 1e-8, 0.5, _LANES), 0.5)
    return s, p1


def test_protocol_ordering_on_every_lane():
    s, p1 = _lanes()
    p_1 = protocol1_optimal_values(s, p1)
    p_2 = protocol2_optimal_values(s, p1)
    p_3 = protocol3_optimal_values(s, p1)
    p_ssd = joint_optimal_values(s, p1)
    pairs = (("P1 >= P2", p_1, p_2), ("P2 >= P3", p_2, p_3), ("P3 >= P_SSD", p_3, p_ssd))
    for name, hi, lo in pairs:
        bad = np.flatnonzero(hi < lo - _TOL)
        assert bad.size == 0, (name, s[bad[:5]], p1[bad[:5]])


def test_cloning_union_beats_ssd_union():
    # at least one succeeds: the SSD union is protocol (1)'s optimum
    s, p1 = _lanes()
    cloning = at_least_one_protocol3_values(s, p1)
    ssd = protocol1_optimal_values(s, p1)
    bad = np.flatnonzero(cloning < ssd - _TOL)
    assert bad.size == 0, (s[bad[:5]], p1[bad[:5]])
    # strictly above away from s -> 0 (both round to 1), s -> 1 and p1 = 1/2
    interior = (0.01 <= s) & (s <= 0.99) & (1e-6 <= p1) & (p1 <= 0.49)
    assert interior.sum() > 4000
    weak = np.flatnonzero(interior & ~(cloning - ssd > _TOL))
    assert weak.size == 0, (s[weak[:5]], p1[weak[:5]])


def test_every_optimum_falls_as_priors_meet():
    # the abstract: "the deviation from equal probabilities contributes to the
    # success in all the tasks", for each p1-only sweep quantity on the p1 grid
    # of the figures, at s log-spaced towards 0, uniform, and towards 1
    s_values = np.concatenate(
        [np.geomspace(1e-10, 0.1, 20), np.linspace(0.0, 1.0, 20), 1.0 - np.geomspace(1e-9, 0.1, 20)]
    )
    s = np.repeat(s_values, _P1_GRID.size)
    p1 = np.tile(_P1_GRID, s_values.size)
    for name in ("ssd", "protocol1", "protocol2", "protocol3", "ssd_star", "p3_star"):
        kernel, _ = _QUANTITIES[name]
        values = kernel(s, p1).reshape(s_values.size, _P1_GRID.size)
        assert not np.isnan(values).any(), name
        rise = np.argwhere(np.diff(values, axis=1) > 1e-14)
        assert rise.size == 0, (name, s_values[rise[:5, 0]], _P1_GRID[rise[:5, 1]])


def test_discord_difference_shrinks_as_priors_meet():
    # |2 prop_left - 1| = |D_left - D_right| / (D_left + D_right) is
    # nonincreasing in p1 on (0, 1/2]: the discords move apart with the priors
    rng = np.random.default_rng(20172)
    p1 = np.linspace(0.5 / 200, 0.5, 200)
    for _ in range(50):
        s = float(_log_uniform(rng, 1e-4, 0.999, 1)[0])
        t = s ** float(rng.uniform(0.05, 0.95))
        prop = prop_left_values(np.full_like(p1, s), p1, np.full_like(p1, t))
        assert not np.isnan(prop).any(), (s, t)
        gap = np.abs(2.0 * prop - 1.0)
        rise = np.flatnonzero(np.diff(gap) > _TOL)
        assert rise.size == 0, (s, t, p1[rise[:5]])


def _rho_ab(inp):
    """Bob's system-ancilla state rho_AB, built as the measurement oracle builds it."""
    f1, f2 = make_state_pair(inp.t, 2)
    b1, b2 = make_state_pair(inp.r, 3)
    return inp.p1 * np.kron(np.outer(f1, f1), np.outer(b1, b1)) + inp.p2 * np.kron(
        np.outer(f2, f2), np.outer(b2, b2)
    )


def test_discords_without_entanglement():
    # the abstract: the sequential scheme needs discord but no entanglement.
    # A positive partial transpose makes a 2 x 3 state separable.
    rng = np.random.default_rng(20173)
    n = 2000
    s = _log_uniform(rng, 1e-3, 0.99, n)
    t = s ** rng.uniform(0.05, 0.95, n)
    p1 = np.minimum(_log_uniform(rng, 1e-3, 0.5, n), 0.5)
    inputs = [CorrelationInput(*lane) for lane in zip(p1.tolist(), t.tolist(), (s / t).tolist())]
    rho = np.stack([_rho_ab(inp) for inp in inputs]).reshape(n, 2, 3, 2, 3)
    transposed = rho.transpose(0, 3, 2, 1, 4).reshape(n, 6, 6)  # on A
    lowest = np.linalg.eigvalsh(transposed)[:, 0]
    bad = np.flatnonzero(lowest < -_TOL)
    assert bad.size == 0, (s[bad[:5]], p1[bad[:5]], t[bad[:5]], lowest[bad[:5]])
    for inp in inputs:
        assert discord_left(inp) > 1e-9 and discord_right(inp) > 1e-9, inp
