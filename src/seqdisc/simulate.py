"""Operational validation of the discrimination chain on explicit unitaries.

Bob's stage is realized as a 6x6 real orthogonal matrix on the qubit (x)
qutrit product space (qubit index major) mapping

    |psi_i> |0_b>  ->  |phi_i> |alpha_i>,   alpha_i = sqrt(q_i)|0> + sqrt(1-q_i)|i>,

followed by a computational-basis measurement of the qutrit: outcome 0 is the
inconclusive result, outcomes 1 and 2 are declarations.  Charlie's stage is
the same construction on his own qutrit with parameters (q1c, q2c) and both
post-measurement system states equal.  Such an isometry exists iff the Gram
matrices of inputs and targets coincide, i.e. t * r = s.

Both unitaries are built once per run, and together they give one outcome
table P[i, k_b, k_c] for preparation i, Bob's outcome k_b and Charlie's k_c:
Bob's unnormalized outcome amplitudes are pushed through the ancilla-|0>
columns of Charlie's unitary, so no post-measurement state is normalized.
Analytically P is the product (q_ib, 1 - q_ib on k_b = i) x (q_ic, 1 - q_ic
on k_c = i); the tests hold the unitaries to it.

Trials are sampled from a counter-based Philox stream with a fixed layout of
four uniforms per trial (preparation, Bob outcome, Charlie outcome, one
reserved), so trial k owns exactly one Philox counter block and any split of
the trial range across workers reproduces the serial bit stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainError,
    InfeasibleIsometryError,
    NumericError,
    Scenario,
    StrategyParams,
    check_overlap_t,
    make_state_pair,
)

_UNITARITY_TOL = 1e-12
_MAPPING_TOL = 1e-10
_GRAM_TOL = 1e-10
#: Outcome probabilities below this are treated as exact zeros; the analytic
#: amplitudes vanish there and anything smaller is squared rounding noise.
_PROB_FLOOR = 1e-24
_DRAWS_PER_TRIAL = 4  # one Philox counter block (4 x 64-bit outputs) per trial
#: Trials per draw: a chunk's uniforms (512 KiB) and the tally's temporaries
#: stay in cache, which measured fastest (1 << 13 to 1 << 15 were within noise).
_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class JointUnitary:
    """Real orthogonal matrix acting on the qubit (x) qutrit product basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        gram = m.T @ m
        residual = float(np.abs(gram - np.eye(m.shape[0])).max())
        if not residual <= _UNITARITY_TOL:  # NaN fails too
            raise NumericError(f"unitarity residual {residual} exceeds {_UNITARITY_TOL}")


def _pair_basis(pair: list[np.ndarray]) -> np.ndarray:
    """Orthonormal basis whose first two columns span the pair, by Householder QR.

    The column signs make the triangular factor's diagonal nonnegative, so two
    pairs with the same Gram matrix get the same factor and the map between
    their bases carries one pair onto the other.  Householder keeps the basis
    orthogonal to rounding even when the pair is (nearly) identical.
    """
    q, r = np.linalg.qr(np.column_stack(pair), mode="complete")
    q[:, :2] *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q


def build_discrimination_unitary(
    inputs: tuple[np.ndarray, np.ndarray], targets: tuple[np.ndarray, np.ndarray]
) -> JointUnitary:
    """Orthogonal matrix mapping each input product state to its target.

    Requires matching Gram matrices (inner products agree within 1e-10); the
    map is completed off the two defining vectors by a deterministic
    orthonormal extension, which leaves all measurement statistics unchanged.
    """
    a = [np.asarray(v, dtype=float) for v in inputs]
    b = [np.asarray(v, dtype=float) for v in targets]
    gram_in = np.array([[np.dot(x, y) for y in a] for x in a])
    gram_out = np.array([[np.dot(x, y) for y in b] for x in b])
    if not np.abs(gram_in - gram_out).max() <= _GRAM_TOL:  # NaN fails too
        raise InfeasibleIsometryError(
            "no inner-product-preserving map exists: "
            f"input Gram {gram_in.tolist()} vs target Gram {gram_out.tolist()}"
        )
    u = JointUnitary(_pair_basis(b) @ _pair_basis(a).T)
    for x, y in zip(a, b):
        residual = float(np.abs(u.matrix @ x - y).max())
        if not residual <= _MAPPING_TOL:
            raise NumericError(f"mapping residual {residual} exceeds {_MAPPING_TOL}")
    return u


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Monte Carlo tallies with seed provenance.

    ``counts[i, b, c]`` counts trials with preparation i+1, Bob success flag b
    and Charlie success flag c.  ``error_count`` counts declarations that
    contradicted the preparation; the protocol guarantees it is exactly 0.
    """

    n_trials: int
    seed: int
    counts: np.ndarray = field(repr=False)
    error_count: int

    @property
    def bob_success_count(self) -> int:
        return int(self.counts[:, 1, :].sum())

    @property
    def joint_success_count(self) -> int:
        return int(self.counts[:, 1, 1].sum())

    @property
    def bob_success_rate(self) -> float:
        return self.bob_success_count / self.n_trials

    @property
    def joint_success_rate(self) -> float:
        return self.joint_success_count / self.n_trials


def trial_uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform variates for trials [start, stop), shape (stop-start, 4).

    Trial k owns counter block k of the Philox-4x64 stream keyed by seed
    (numpy's Philox.advance moves one 4-output block per unit), so disjoint
    ranges computed independently concatenate into the serial stream.
    """
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start)
    # the same doubles as .uniform(0, 1), which returns 0 + 1 * x
    return np.random.Generator(bitgen).random(size=(stop - start, _DRAWS_PER_TRIAL))


def _stage_unitary(inputs: np.ndarray, outputs: np.ndarray, stage: StrategyParams) -> JointUnitary:
    """Dilation |in_i>|0> -> |out_i>(sqrt(q_i)|0> + sqrt(1-q_i)|i>) of one stage."""
    e0 = np.array([1.0, 0.0, 0.0])
    targets = []
    for i, (out, q) in enumerate(zip(outputs, (stage.q1, stage.q2)), start=1):
        flag = np.zeros(3)
        flag[0] = np.sqrt(q)
        flag[i] = np.sqrt(max(1.0 - q, 0.0))
        targets.append(np.kron(out, flag))
    return build_discrimination_unitary(tuple(np.kron(v, e0) for v in inputs), tuple(targets))


def _outcome_table(scenario: Scenario, t: float, q1b: float, q1c: float) -> np.ndarray:
    """P[i, k_b, k_c]: probability of Bob's outcome k_b and Charlie's k_c given state i+1.

    Bob's unnormalized outcome amplitudes go through the ancilla-|0> columns of
    Charlie's unitary.  Probabilities below the noise floor are zeroed exactly
    and each preparation's table is renormalized, making analytically
    forbidden outcomes impossible.
    """
    s = scenario.s
    check_overlap_t(s, t)
    bob = StrategyParams.from_q1(q1b, s / t)
    charlie = StrategyParams.from_q1(q1c, t)
    psi = np.array([p.amplitudes for p in make_state_pair(s, 2)])
    phi = np.array([p.amplitudes for p in make_state_pair(t, 2)])
    u_b = _stage_unitary(psi, phi, bob)
    final = np.array([1.0, 0.0])  # Charlie's system state after either outcome
    u_c = _stage_unitary(phi, np.array([final, final]), charlie)

    # Each unitary's ancilla-|0> columns, as [system out, outcome, system in].
    b_cols = u_b.matrix.reshape(2, 3, 2, 3)[..., 0]
    c_cols = u_c.matrix.reshape(2, 3, 2, 3)[..., 0]
    bob_amp = np.einsum("xkj,ij->ixk", b_cols, psi)
    amp = np.einsum("ylx,ixk->ikyl", c_cols, bob_amp)
    probs = (amp * amp).sum(axis=2)
    probs[probs < _PROB_FLOOR] = 0.0
    return probs / probs.sum(axis=(1, 2), keepdims=True)


def _stage_outcomes(u: np.ndarray, cum: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Per trial, the first k with u < cum[row, k], or 0 when there is none.

    Rows are nondecreasing, so that k is the number of entries at or below u;
    a count of 3 (u above the last entry, which rounding can leave below 1,
    or a zero row) means outcome 0.
    """
    k = (u >= cum[:, 0].take(row)).astype(np.intp)
    k += u >= cum[:, 1].take(row)
    k += u >= cum[:, 2].take(row)
    k[k == 3] = 0
    return k


def _tally(u: np.ndarray, p1: float, cum_b: np.ndarray, cum_c: np.ndarray) -> np.ndarray:
    """(2, 3, 3) trial counts by preparation, Bob's outcome k_b and Charlie's k_c.

    ``u`` holds trial_uniforms rows; state 1 is prepared when u[:, 0] < p1.
    """
    prep = (u[:, 0] >= p1).astype(np.intp)
    row = prep * 3 + _stage_outcomes(u[:, 1], cum_b, prep)
    cell = row * 3 + _stage_outcomes(u[:, 2], cum_c, row)
    return np.bincount(cell, minlength=18).reshape(2, 3, 3)


def run_ssd_trials(
    scenario: Scenario, t: float, q1b: float, q1c: float, n: int, seed: int
) -> TrialSummary:
    """Seeded Monte Carlo of the Bob -> Charlie measurement chain.

    Each trial prepares state i with probability p_i, pushes the joint state
    through Bob's unitary, samples his qutrit outcome, forwards the collapsed
    system state through Charlie's stage and samples his outcome.  Outcome 0
    means failure, outcomes 1/2 declare the state.  Trials are drawn and
    tallied in cache-sized chunks, so memory does not grow with n; the 18
    (preparation, k_b, k_c) cells are folded into counts once per run.
    """
    if n < 1:
        raise DomainError(f"n={n} must be at least 1")
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed={seed} outside the Philox key range [0, 2^128)")
    probs = _outcome_table(scenario, t, q1b, q1c)
    probs_b = probs.sum(axis=2)
    probs_c = np.divide(
        probs, probs_b[..., None], out=np.zeros_like(probs), where=probs_b[..., None] > 0.0
    )
    cum_b = np.cumsum(probs_b, axis=1)
    cum_c = np.cumsum(probs_c.reshape(6, 3), axis=1)

    cells = np.zeros((2, 3, 3), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        u = trial_uniforms(seed, start, min(start + _CHUNK, n))
        cells += _tally(u, scenario.p1, cum_b, cum_c)
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    error_count = 0
    for (i, k_b, k_c), m in np.ndenumerate(cells):
        declared = i + 1
        counts[i, int(k_b == declared), int(k_c == declared)] += m
        if k_b not in (0, declared) or k_c not in (0, declared):
            error_count += int(m)
    return TrialSummary(n_trials=n, seed=seed, counts=counts, error_count=error_count)
