"""Operational validation of the discrimination chain on explicit unitaries.

Bob's stage is realized as a 6x6 real orthogonal matrix on the qubit (x)
qutrit product space (qubit index major) mapping

    |psi_i> |0_b>  ->  |phi_i> |alpha_i>,   alpha_i = sqrt(q_i)|0> + sqrt(1-q_i)|i>,

followed by a computational-basis measurement of the qutrit: outcome 0 is the
inconclusive result, outcomes 1 and 2 are declarations.  Charlie's stage is
the same construction on his own qutrit with parameters (q1c, q2c) and both
post-measurement system states equal.  Such an isometry exists iff the Gram
matrices of inputs and targets coincide, i.e. t * r = s.

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
    PureState,
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
_CHUNK = 1 << 22


@dataclass(frozen=True, eq=False)
class JointUnitary:
    """Real orthogonal matrix acting on the qubit (x) qutrit product basis."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        gram = m.T @ m
        residual = float(np.abs(gram - np.eye(m.shape[0])).max())
        if residual > _UNITARITY_TOL:
            raise NumericError(f"unitarity residual {residual} exceeds {_UNITARITY_TOL}")


def _orthonormal_extension(cols: list[np.ndarray], dim: int) -> np.ndarray:
    """Complete the given orthonormal columns to a basis of R^dim.

    Deterministic: standard basis vectors are appended in index order via
    modified Gram-Schmidt, skipping near-dependent candidates.
    """
    basis = [c.copy() for c in cols]
    for k in range(dim):
        if len(basis) == dim:
            break
        v = np.zeros(dim)
        v[k] = 1.0
        for b in basis:
            v = v - np.dot(b, v) * b
        norm = float(np.linalg.norm(v))
        if norm > 1e-7:
            basis.append(v / norm)
    if len(basis) != dim:
        raise NumericError("orthonormal completion failed")
    return np.column_stack(basis)


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
    dim = a[0].shape[0]
    gram_in = np.array([[np.dot(x, y) for y in a] for x in a])
    gram_out = np.array([[np.dot(x, y) for y in b] for x in b])
    if np.abs(gram_in - gram_out).max() > _GRAM_TOL:
        raise InfeasibleIsometryError(
            "no inner-product-preserving map exists: "
            f"input Gram {gram_in.tolist()} vs target Gram {gram_out.tolist()}"
        )

    def orthonormal_pair(v: list[np.ndarray]) -> list[np.ndarray]:
        u1 = v[0] / np.linalg.norm(v[0])
        w = v[1] - np.dot(u1, v[1]) * u1
        norm = float(np.linalg.norm(w))
        if norm < 1e-7:  # (near-)identical states: a single defining vector
            return [u1]
        return [u1, w / norm]

    cols_in = orthonormal_pair(a)
    cols_out = orthonormal_pair(b)
    if len(cols_in) != len(cols_out):
        raise InfeasibleIsometryError(
            "input and target pairs have different ranks: "
            f"Gram {gram_in.tolist()} vs {gram_out.tolist()}"
        )
    basis_in = _orthonormal_extension(cols_in, dim)
    basis_out = _orthonormal_extension(cols_out, dim)
    u = JointUnitary(basis_out @ basis_in.T)
    for x, y in zip(a, b):
        residual = float(np.abs(u.matrix @ x - y).max())
        if residual > _MAPPING_TOL:
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
    return np.random.Generator(bitgen).uniform(size=(stop - start, _DRAWS_PER_TRIAL))


def _stage_tables(
    u: JointUnitary, inputs: list[np.ndarray]
) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """Outcome probabilities and post-measurement system states per preparation.

    Returns (probs[i, k], post[i][k]) for preparation i and qutrit outcome k.
    Probabilities below the noise floor are zeroed exactly and the row is
    renormalized, making analytically forbidden outcomes impossible.
    """
    probs = np.zeros((len(inputs), 3))
    post: list[list[np.ndarray]] = []
    for i, vec in enumerate(inputs):
        w = (u.matrix @ vec).reshape(2, 3)
        pk = (w * w).sum(axis=0)
        pk[pk < _PROB_FLOOR] = 0.0
        pk = pk / pk.sum()
        probs[i] = pk
        states = []
        for k in range(3):
            if pk[k] > 0.0:
                states.append(w[:, k] / np.linalg.norm(w[:, k]))
            else:
                states.append(np.zeros(2))
        post.append(states)
    return probs, post


def run_ssd_trials(
    scenario: Scenario, t: float, q1b: float, q1c: float, n: int, seed: int
) -> TrialSummary:
    """Seeded Monte Carlo of the Bob -> Charlie measurement chain.

    Each trial prepares state i with probability p_i, pushes the joint state
    through Bob's unitary, samples his qutrit outcome, forwards the collapsed
    system state through Charlie's stage and samples his outcome.  Outcome 0
    means failure, outcomes 1/2 declare the state.
    """
    if n < 1:
        raise DomainError(f"n={n} must be at least 1")
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed={seed} outside the Philox key range [0, 2^128)")
    s = scenario.s
    check_overlap_t(s, t)
    bob = StrategyParams.from_q1(q1b, s / t)
    charlie = StrategyParams.from_q1(q1c, t)

    psi = make_state_pair(s, 2)
    phi = make_state_pair(t, 2)
    e0 = np.array([1.0, 0.0, 0.0])

    def flag(q: float, i: int) -> np.ndarray:
        v = np.zeros(3)
        v[0] = np.sqrt(q)
        v[i] = np.sqrt(max(1.0 - q, 0.0))
        return v

    u_b = build_discrimination_unitary(
        tuple(np.kron(p.amplitudes, e0) for p in psi),
        (
            np.kron(phi[0].amplitudes, flag(bob.q1, 1)),
            np.kron(phi[1].amplitudes, flag(bob.q2, 2)),
        ),
    )
    probs_b, post_b = _stage_tables(u_b, [np.kron(p.amplitudes, e0) for p in psi])

    # Charlie sees the system state that Bob's product-form stage leaves for
    # every outcome; compute his tables for each (preparation, Bob outcome).
    e_final = PureState(np.array([1.0, 0.0]))
    u_c = build_discrimination_unitary(
        tuple(np.kron(p.amplitudes, e0) for p in phi),
        (
            np.kron(e_final.amplitudes, flag(charlie.q1, 1)),
            np.kron(e_final.amplitudes, flag(charlie.q2, 2)),
        ),
    )
    probs_c = np.zeros((2, 3, 3))  # [preparation, bob outcome, charlie outcome]
    for i in range(2):
        for k in range(3):
            if probs_b[i, k] == 0.0:
                probs_c[i, k, 0] = 1.0
                continue
            w = (u_c.matrix @ np.kron(post_b[i][k], e0)).reshape(2, 3)
            pk = (w * w).sum(axis=0)
            pk[pk < _PROB_FLOOR] = 0.0
            probs_c[i, k] = pk / pk.sum()

    cum_b = np.cumsum(probs_b, axis=1)
    cum_c = np.cumsum(probs_c.reshape(6, 3), axis=1)

    counts = np.zeros(8, dtype=np.int64)
    error_count = 0
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        u = trial_uniforms(seed, start, stop)
        prep = np.where(u[:, 0] < scenario.p1, 1, 2)
        rows_b = cum_b[prep - 1]
        k_b = np.argmax(u[:, 1, None] < rows_b, axis=1)
        rows_c = cum_c[(prep - 1) * 3 + k_b]
        k_c = np.argmax(u[:, 2, None] < rows_c, axis=1)
        bob_ok = k_b == prep
        charlie_ok = k_c == prep
        error_count += int((((k_b != 0) & ~bob_ok) | ((k_c != 0) & ~charlie_ok)).sum())
        code = (prep - 1) * 4 + bob_ok * 2 + charlie_ok
        counts += np.bincount(code, minlength=8)
    return TrialSummary(
        n_trials=n, seed=seed, counts=counts.reshape(2, 2, 2), error_count=error_count
    )
