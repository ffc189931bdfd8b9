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
four 64-bit words per trial (preparation, Bob outcome, Charlie outcome, one
reserved), so trial k owns exactly one Philox counter block and any split of
the trial range across workers reproduces the serial bit stream.  A run
splits its trials into one contiguous span per CPU that the process may
use, each starting on a chunk boundary and drawn by its own Philox advanced
to its first trial.  The caller tallies the first span and a thread each
of the others (numpy's Philox draws and ufuncs release the GIL), and the
spans' cells are summed, so the counts are the same for any number of
spans.  The words are never turned into floats: numpy's uniform from a
word x is (x >> 11) * 2**-53, and c * 2**53 is exact for every double c in
[0, 2], so u >= c holds exactly when x >> 11 >= ceil(c * 2**53), and u < c
exactly when it does not.  Each probability threshold is therefore one
integer, built once per run; a threshold at or above 1 is never reached and
0 always is.  Each span's trials are tallied against a plan built from those
thresholds: the distinct thresholds strictly inside (0, 2**53) of the prior
and of each stage, shifted left by 11 so that the raw words are compared
without a shift.  A chunk's code per trial is its position among them,
(prior, Bob, Charlie) in mixed radix; one bincount counts the codes, and
the counts summed over a span's chunks are added once into the 18
(preparation, k_b, k_c) cells, each code's count into its own cell.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainError,
    InfeasibleIsometryError,
    NumericError,
    Scenario,
    StrategyParams,
    _is_integer,
    check_overlap_t,
    make_state_pair,
)

_UNITARITY_TOL = 1e-12
_MAPPING_TOL = 1e-10
_GRAM_TOL = 1e-10
#: Outcome probabilities below this are treated as exact zeros; the analytic
#: amplitudes vanish there and anything smaller is squared rounding noise.
_PROB_FLOOR = 1e-24
_WORDS_PER_TRIAL = 4  # one Philox counter block (4 x 64-bit outputs) per trial
#: Trials per draw, and the unit of a run's spans: a chunk's words (256 KiB,
#: 512 KiB over two spans) and the tally's temporaries stay in cache, which
#: measured fastest (1 << 13 to 1 << 15 were within noise on one span; two
#: spans of 1 << 14 raised peak memory by about 1 MB).
_CHUNK = 1 << 13
#: A word's top 53 bits, x >> 11, are below this.
_WORD_TOP = 1 << 53


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
) -> np.ndarray:
    """Real orthogonal (d, d) matrix mapping each input product state to its
    target, for d-dimensional inputs and targets (d = 6 on qubit (x) qutrit).

    Requires matching Gram matrices (inner products agree within 1e-10); the
    map is completed off the two defining vectors by a deterministic
    orthonormal extension, which leaves all measurement statistics unchanged.
    The matrix returned is orthogonal within 1e-12 and maps each input to its
    target within 1e-10, or this raises NumericError.
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
    u = _pair_basis(b) @ _pair_basis(a).T
    residual = float(np.abs(u.T @ u - np.eye(u.shape[0])).max())
    if not residual <= _UNITARITY_TOL:  # NaN fails too
        raise NumericError(f"unitarity residual {residual} exceeds {_UNITARITY_TOL}")
    for x, y in zip(a, b):
        residual = float(np.abs(u @ x - y).max())
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


def _trial_words(seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """Philox words of trials [start, stop), as consecutive (rows, 4) uint64
    chunks of at most ``_CHUNK`` rows.

    Trial k owns counter block k of the Philox-4x64 stream keyed by seed
    (numpy's Philox.advance moves one 4-output block per unit), so disjoint
    ranges computed independently concatenate into the serial stream.  One
    bit generator is carried across the chunks; each draw uses up whole
    blocks, so the next chunk starts on its first trial's block.
    """
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start)
    for a in range(start, stop, _CHUNK):
        yield bitgen.random_raw(size=(min(a + _CHUNK, stop) - a, _WORDS_PER_TRIAL))


def trial_uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform variates for trials [start, stop), shape (stop-start, 4).

    The words of ``_trial_words`` decoded as numpy's Generator.random decodes
    them, (x >> 11) * 2**-53: bit for bit the doubles of
    ``Generator(Philox(key=seed)).random`` after ``advance(start)``, which
    ``run_ssd_trials`` compares against without forming them.
    """
    words = np.concatenate(
        [np.empty((0, _WORDS_PER_TRIAL), dtype=np.uint64), *_trial_words(seed, start, stop)]
    )
    return (words >> 11) * 2.0**-53


def _word_thresholds(c) -> np.ndarray:
    """Least m with m * 2**-53 >= c, elementwise, as uint64 (c in [0, 2]).

    c * 2**53 is exact, so for a word x, x >> 11 >= m holds exactly when its
    uniform (x >> 11) * 2**-53 is at or above c.  m = 0 for c = 0 (always);
    m >= 2**53 for c >= 1 (never, since x >> 11 < 2**53).
    """
    return np.ceil(np.asarray(c, dtype=float) * 2.0**53).astype(np.uint64)


def _stage_unitary(inputs: np.ndarray, outputs: np.ndarray, stage: StrategyParams) -> np.ndarray:
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
    psi = make_state_pair(s, 2)
    phi = make_state_pair(t, 2)
    u_b = _stage_unitary(psi, phi, bob)
    final = np.array([1.0, 0.0])  # Charlie's system state after either outcome
    u_c = _stage_unitary(phi, np.array([final, final]), charlie)

    # Each unitary's ancilla-|0> columns, as [system out, outcome, system in].
    b_cols = u_b.reshape(2, 3, 2, 3)[..., 0]
    c_cols = u_c.reshape(2, 3, 2, 3)[..., 0]
    bob_amp = np.einsum("xkj,ij->ixk", b_cols, psi)
    amp = np.einsum("ylx,ixk->ikyl", c_cols, bob_amp)
    probs = (amp * amp).sum(axis=2)
    probs[probs < _PROB_FLOOR] = 0.0
    return probs / probs.sum(axis=(1, 2), keepdims=True)


def _informative(m: np.ndarray) -> list[int]:
    """The sorted, distinct thresholds of m strictly inside (0, 2**53): m = 0
    passes every word and m >= 2**53 none, so neither needs a comparison.
    A set rather than np.unique, whose import of numpy.ma costs a run about
    1 MB of resident memory."""
    return sorted({x for x in np.ravel(m).tolist() if 0 < x < _WORD_TOP})


def _outcomes_by_position(m: np.ndarray, levels: list[int]) -> np.ndarray:
    """k[row, pos]: how many entries of each threshold row of m are at or
    below v, for any v at position pos among ``levels`` = _informative(m).

    Such a v lies in [levels[pos - 1], levels[pos]) (from 0, up to 2**53),
    so an entry is at or below it exactly when it is 0 or at most
    levels[pos - 1].
    """
    lower = np.array([0, *levels], dtype=np.uint64)
    return np.count_nonzero(m[..., None] <= lower, axis=-2)


def _tally(
    chunks: Iterable[np.ndarray], m_p1: np.ndarray, m_b: np.ndarray, m_c: np.ndarray
) -> np.ndarray:
    """(2, 3, 3) trial counts of all ``chunks`` by preparation, Bob's outcome
    k_b and Charlie's k_c.

    ``chunks`` holds _trial_words rows and m_p1, m_b, m_c are the
    _word_thresholds of p1 and of Bob's (2, 3) and Charlie's (6, 3)
    cumulative rows.  With v = x >> 11 of a trial's word, state 1 is prepared
    when v < m_p1, and a stage's k is the number of entries of its threshold
    row at or below its v, i.e. of cumulative entries at or below its
    uniform.  Rows are nondecreasing, so that is the first k with
    u < cum[row, k]; k = 3 (u above a last entry that rounding left below 1,
    or a zero row) is outcome 0, so Charlie's row is prep * 3 + k_b % 3.

    The plan, built once: for 0 < m < 2**53, v >= m holds exactly when
    x >= m << 11, so each of the prior's and each stage's distinct
    informative thresholds is one comparison on the raw word column, and a
    trial's position among a stage's thresholds is the number it passes.
    The thresholds stay np.uint64 scalars, the words' own type, so each
    comparison is between two uint64: numpy's result type for uint64 with
    int64 is float64, inexact above 2**53, and under numpy 1.24's
    value-based casting a scalar's type depends on its value too.  The code
    (prior, Bob, Charlie position) in mixed radix, at most 2 * 7 * 19 = 266
    values, is built by Horner's rule in a new int16 array for each chunk;
    the chunks' bincounts are summed, and at the end each code's count is
    added into its (preparation, k_b, k_c) cell.  ``chunks`` is only read.
    """
    stages = [(0, m_p1.reshape(1, 1)), (1, m_b), (2, m_c)]
    levels = [_informative(m) for _, m in stages]
    k_p, k_b, k_c = (_outcomes_by_position(m, lv) for (_, m), lv in zip(stages, levels))
    # the cell of each code, over the (prior, Bob, Charlie) positions in C order
    prep = k_p[0][:, None, None]
    kb = k_b[prep, np.arange(k_b.shape[1])[:, None]]
    kc = k_c[prep * 3 + kb % 3, np.arange(k_c.shape[1])]
    cell = (prep * 9 + kb % 3 * 3 + kc % 3).ravel()
    radix_after = [len(lv) + 1 for lv in levels[1:]] + [1]  # the next stage's radix
    plan = [
        (column, [np.uint64(m << 11) for m in lv], radix)
        for (column, _), lv, radix in zip(stages, levels, radix_after)
    ]

    totals = np.zeros(cell.size, dtype=np.int64)
    for words in chunks:
        at = np.zeros(len(words), dtype=np.int16)
        for column, thresholds, radix in plan:
            x = words[:, column]
            for w in thresholds:
                at += x >= w
            if radix > 1:
                at *= radix
        totals += np.bincount(at, minlength=cell.size)
    cells = np.zeros(18, dtype=np.int64)
    np.add.at(cells, cell, totals)
    return cells.reshape(2, 3, 3)


def _trial_thresholds(
    scenario: Scenario, t: float, q1b: float, q1c: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_word_thresholds`` of p1 and of Bob's (2, 3) and Charlie's (6, 3)
    cumulative outcome rows, the m_p1, m_b and m_c that ``_tally`` reads.

    Bob's row of preparation i sums the outcome table over Charlie's
    outcomes; Charlie's row (i, k_b) is the table conditioned on Bob's k_b,
    all zeros where Bob's outcome has probability 0. Each row's entries from
    its last outcome of positive probability on are exactly 1
    (``_closed_cumsum``), so its thresholds there are 2^53, which no word
    reaches.
    """
    probs = _outcome_table(scenario, t, q1b, q1c)
    probs_b = probs.sum(axis=2)
    probs_c = np.divide(
        probs, probs_b[..., None], out=np.zeros_like(probs), where=probs_b[..., None] > 0.0
    )
    cum_b = _closed_cumsum(probs_b)
    cum_c = _closed_cumsum(probs_c.reshape(6, 3))
    return _word_thresholds(scenario.p1), _word_thresholds(cum_b), _word_thresholds(cum_c)


def _closed_cumsum(probs: np.ndarray) -> np.ndarray:
    """The cumulative sums of each row of ``probs``, every entry from the
    row's last outcome of positive probability on set to exactly 1.0; a zero
    row stays zero.

    A row's sum can round to 1 - 2^-53 or 1 - 2^-52, whose threshold 2^53 - 1
    or 2^53 - 2 costs ``_tally`` a comparison to send the words of
    probability 2^-53 above it to outcome 0. Closed, those words take the
    row's last possible outcome, and never one of probability 0 after it.
    """
    k = np.arange(probs.shape[1])
    last = np.where(probs > 0.0, k, -1).max(axis=1, keepdims=True)
    return np.where((k >= last) & (last >= 0), 1.0, np.cumsum(probs, axis=1))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of the machine's where the
    platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _span_cells(seed: int, n: int, thresholds: tuple) -> np.ndarray:
    """``_tally``'s (2, 3, 3) cells of trials [0, n), summed over its spans.

    One span per usable CPU but no more than n's whole chunks, so a run
    below two chunks is one span and starts no thread.  The spans are
    contiguous and start on chunk boundaries, each with its own Philox;
    the caller tallies the first and a thread each of the others.  Every
    thread is joined before this returns or raises, and the first span's
    exception, in trial order, is re-raised.
    """
    spans = max(1, min(_usable_cpus(), n // _CHUNK))
    chunks = -(-n // _CHUNK)
    bounds = [min(n, j * chunks // spans * _CHUNK) for j in range(spans + 1)]
    cells: list = [None] * spans

    def run(j: int) -> None:
        try:
            cells[j] = _tally(_trial_words(seed, bounds[j], bounds[j + 1]), *thresholds)
        except BaseException as exc:  # re-raised by the caller, after the joins
            cells[j] = exc

    workers: list[threading.Thread] = []
    try:
        for j in range(1, spans):
            worker = threading.Thread(target=run, args=(j,))
            worker.start()
            workers.append(worker)
        run(0)
    finally:
        for worker in workers:
            worker.join()
    for c in cells:
        if isinstance(c, BaseException):
            raise c
    return sum(cells[1:], cells[0])


def run_ssd_trials(
    scenario: Scenario, t: float, q1b: float, q1c: float, n: int, seed: int
) -> TrialSummary:
    """Seeded Monte Carlo of the Bob -> Charlie measurement chain.

    Each trial prepares state i with probability p_i, pushes the joint state
    through Bob's unitary, samples his qutrit outcome, forwards the collapsed
    system state through Charlie's stage and samples his outcome.  Outcome 0
    means failure, outcomes 1/2 declare the state.  Trials are drawn as raw
    Philox words and tallied in cache-sized chunks, so memory does not grow
    with n: the prior and the cumulative outcome rows become integer word
    thresholds once per run, and the trials are split into one span of
    whole chunks per usable CPU (``_span_cells``), each drawn by its own
    Philox advanced to the span's first trial.  In each span ``_tally``
    compares each chunk's raw words with the informative thresholds, counts
    the trials' codes by one bincount and adds each code's count into its
    (preparation, k_b, k_c) cell; the spans' cells are summed, so the
    summary is the same for any number of spans, and give ``counts`` and
    ``error_count``.
    """
    if not (_is_integer(n) and n >= 1):
        raise DomainError(f"n={n!r} must be an integer of at least 1")
    if not (_is_integer(seed) and 0 <= seed < 2**128):
        raise DomainError(f"seed={seed!r} must be an integer in the Philox key range [0, 2^128)")
    n, seed = int(n), int(seed)  # a numpy integer's summary holds Python ints
    cells = _span_cells(seed, n, _trial_thresholds(scenario, t, q1b, q1c))
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    error_count = 0
    for (i, k_b, k_c), m in np.ndenumerate(cells):
        declared = i + 1
        counts[i, int(k_b == declared), int(k_c == declared)] += m
        if k_b not in (0, declared) or k_c not in (0, declared):
            error_count += int(m)
    return TrialSummary(n_trials=n, seed=seed, counts=counts, error_count=error_count)
