import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqdisc import (
    ConstraintError,
    DomainError,
    InfeasibleIsometryError,
    NumericError,
    Scenario,
    bob_success,
    build_discrimination_unitary,
    joint_optimal,
    joint_success,
    make_state_pair,
    run_ssd_trials,
)
from seqdisc import simulate
from seqdisc.simulate import _outcome_table, trial_uniforms


def _flag(q, i):
    v = np.zeros(3)
    v[0] = math.sqrt(q)
    v[i] = math.sqrt(1.0 - q)
    return v


def _product_inputs(s):
    e0 = np.array([1.0, 0.0, 0.0])
    psi = make_state_pair(s, 2)
    return tuple(np.kron(p, e0) for p in psi)


class TestUnitaryConstruction:
    def test_residuals_within_contract(self):
        s, t, q = 0.36, 0.6, 0.6
        phi = make_state_pair(t, 2)
        targets = (
            np.kron(phi[0], _flag(q, 1)),
            np.kron(phi[1], _flag(q, 2)),
        )
        u = build_discrimination_unitary(_product_inputs(s), targets)
        assert np.abs(u.T @ u - np.eye(6)).max() < 1e-12
        for x, y in zip(_product_inputs(s), targets):
            assert np.abs(u @ x - y).max() < 1e-10

    def test_shared_qubit_factor_targets(self):
        # t = 1: both targets carry the same system state, Gram still matches
        s = 0.3
        e_sys = np.array([1.0, 0.0])
        q1 = 0.5
        q2 = s * s / q1
        targets = (
            np.kron(e_sys, _flag(q1, 1)),
            np.kron(e_sys, _flag(q2, 2)),
        )
        u = build_discrimination_unitary(_product_inputs(s), targets)
        assert np.abs(u.T @ u - np.eye(6)).max() < 1e-12

    def test_gram_mismatch_rejected(self):
        s = 0.3
        phi = make_state_pair(0.5, 2)
        targets = (  # overlap 0.5*0.5 = 0.25 != 0.3
            np.kron(phi[0], _flag(0.5, 1)),
            np.kron(phi[1], _flag(0.5, 2)),
        )
        with pytest.raises(InfeasibleIsometryError, match="Gram"):
            build_discrimination_unitary(_product_inputs(s), targets)

    def test_nan_vector_rejected(self):
        nan_pair = tuple(np.where(np.arange(6) == 0, math.nan, x) for x in _product_inputs(0.3))
        with pytest.raises(InfeasibleIsometryError, match="Gram"):
            build_discrimination_unitary(nan_pair, nan_pair)

    def test_nan_matrix_rejected(self, monkeypatch):
        basis = np.eye(6)
        basis[0, 0] = math.nan
        monkeypatch.setattr(simulate, "_pair_basis", lambda pair: basis)
        with pytest.raises(NumericError, match="unitarity"):
            build_discrimination_unitary(_product_inputs(0.3), _product_inputs(0.3))

    def test_mapping_residual_rejected(self, monkeypatch):
        # the identity is orthogonal but maps no input onto its target here
        phi = make_state_pair(0.6, 2)
        targets = (np.kron(phi[0], _flag(0.6, 1)), np.kron(phi[1], _flag(0.6, 2)))
        monkeypatch.setattr(simulate, "_pair_basis", lambda pair: np.eye(6))
        with pytest.raises(NumericError, match="mapping residual"):
            build_discrimination_unitary(_product_inputs(0.36), targets)


class TestTrialUniforms:
    def test_range_split_is_bit_identical(self):
        whole = trial_uniforms(42, 0, 1000)
        parts = np.vstack(
            [trial_uniforms(42, 0, 1), trial_uniforms(42, 1, 321), trial_uniforms(42, 321, 1000)]
        )
        assert np.array_equal(whole, parts)

    def test_seed_changes_stream(self):
        assert not np.array_equal(trial_uniforms(1, 0, 10), trial_uniforms(2, 0, 10))

    @pytest.mark.parametrize("seed", [0, 42, 2**64 + 3, 2**128 - 1])
    def test_split_range_equals_one_uniform_draw(self, seed):
        whole = np.random.Generator(np.random.Philox(key=seed)).uniform(size=(1000, 4))
        ranges = [(0, 333), (333, 334), (334, 1000)]
        parts = np.vstack([trial_uniforms(seed, a, b) for a, b in ranges])
        assert np.array_equal(parts, whole)


class TestRunTrials:
    def test_deterministic_summary(self):
        sc = Scenario(0.04, 0.5)
        a = run_ssd_trials(sc, 0.2, 0.2, 0.2, 20_000, 7)
        b = run_ssd_trials(sc, 0.2, 0.2, 0.2, 20_000, 7)
        assert np.array_equal(a.counts, b.counts)
        assert a.error_count == b.error_count == 0

    def test_counts_sum_to_n(self):
        sc = Scenario(0.1, 0.3)
        summary = run_ssd_trials(sc, 0.4, 0.5, 0.5, 12_345, 3)
        assert int(summary.counts.sum()) == 12_345

    def test_joint_rate_within_five_sigma(self):
        sc = Scenario(0.04, 0.5)
        n = 200_000
        summary = run_ssd_trials(sc, 0.2, 0.2, 0.2, n, 11)
        expected = joint_success(sc, 0.2, 0.2, 0.2)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(summary.joint_success_rate - expected) <= 5 * sigma

    def test_bob_marginal_within_five_sigma(self):
        sc = Scenario(0.1, 0.3)
        n = 200_000
        t, q1b, q1c = 0.5, 0.3, 0.6
        summary = run_ssd_trials(sc, t, q1b, q1c, n, 5)
        expected = bob_success(sc, t, q1b)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(summary.bob_success_rate - expected) <= 5 * sigma

    def test_no_information_means_no_success(self):
        sc = Scenario(0.2, 0.4)
        summary = run_ssd_trials(sc, 0.2, 1.0, 0.5, 10_000, 9)
        assert summary.bob_success_count == 0

    def test_no_erroneous_declarations_across_seeds(self):
        sc = Scenario(0.3, 0.25)
        for seed in range(5):
            summary = run_ssd_trials(sc, 0.6, 0.7, 0.5, 20_000, seed)
            assert summary.error_count == 0

    def test_single_trial(self):
        summary = run_ssd_trials(Scenario(0.04, 0.5), 0.2, 0.2, 0.2, 1, 0)
        assert int(summary.counts.sum()) == 1

    @pytest.mark.parametrize("chunk", [1000, 4096, 1 << 22])
    def test_chunk_size_does_not_change_the_summary(self, monkeypatch, chunk):
        # 10_001 is a multiple of none of the chunk sizes
        sc, n = Scenario(0.36, 0.25), 10_001
        expected = run_ssd_trials(sc, 0.6, 0.7, 0.5, n, 3)
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        summary = run_ssd_trials(sc, 0.6, 0.7, 0.5, n, 3)
        assert np.array_equal(summary.counts, expected.counts)
        assert summary.error_count == expected.error_count

    def test_rejects_infeasible_parameters(self):
        with pytest.raises(ConstraintError):
            run_ssd_trials(Scenario(0.04, 0.5), 0.2, 0.01, 0.2, 10, 0)
        with pytest.raises(DomainError):
            run_ssd_trials(Scenario(0.04, 0.5), 0.02, 0.5, 0.5, 10, 0)
        with pytest.raises(DomainError):
            run_ssd_trials(Scenario(0.04, 0.5), 0.2, 0.2, 0.2, 0, 0)

    @pytest.mark.parametrize(
        "n, seed, name",
        [(10, 1.5, "seed"), (10, 1.9, "seed"), (10, True, "seed"), (10, np.float64(1.0), "seed"),
         (100.0, 1, "n"), (10.5, 1, "n"), (np.True_, 1, "n")],
        ids=["seed_fraction", "seed_near_two", "seed_bool", "seed_numpy_float",
             "n_float", "n_fraction", "n_numpy_bool"],
    )
    def test_rejects_a_count_or_seed_that_is_not_an_integer(self, n, seed, name):
        # numpy would truncate a float seed (or take True as 1) and run seed
        # 1's stream, and refuse a float n with a bare TypeError
        with pytest.raises(DomainError, match=f"{name}=.* must be an integer"):
            run_ssd_trials(Scenario(0.04, 0.5), 0.2, 0.2, 0.2, n, seed)

    def test_numpy_integers_run_as_python_integers(self):
        sc = Scenario(0.04, 0.5)
        expected = run_ssd_trials(sc, 0.2, 0.2, 0.2, 1000, 1)
        summary = run_ssd_trials(sc, 0.2, 0.2, 0.2, np.int32(1000), np.uint64(1))
        assert np.array_equal(summary.counts, expected.counts)

    def test_numpy_integers_leave_python_integers_in_the_summary(self):
        # the summary held n_trials=np.int64(5) and seed=np.int64(3)
        sc = Scenario(0.3, 0.2)
        summary = run_ssd_trials(sc, 0.6, 0.7, 0.5, np.int64(5), np.int64(3))
        assert repr(summary) == repr(run_ssd_trials(sc, 0.6, 0.7, 0.5, 5, 3))
        assert type(summary.n_trials) is int and type(summary.seed) is int


#: (scenario, t, q1b, q1c) of the span tests: every one of the summary's
#: eight cells is reached.
_SPAN_CASE = (Scenario(0.36, 0.25), 0.6, 0.7, 0.5)
#: Trial counts of the span tests, from the chunk size: one trial, one short
#: chunk, three chunks and a short fourth, and many chunks.
_SPAN_TRIALS = {
    "1": lambda chunk: 1,
    "chunk-1": lambda chunk: chunk - 1,
    "3chunk+7": lambda chunk: 3 * chunk + 7,
    "200001": lambda chunk: 200_001,
}


def _run_on(monkeypatch, cpus, n):
    """run_ssd_trials of _SPAN_CASE on n trials at seed 5, as if the process
    could use ``cpus`` CPUs."""
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    return run_ssd_trials(*_SPAN_CASE, n, 5)


def _recorded_spans(monkeypatch):
    """The (start, stop, thread) of every ``_trial_words`` call from here on."""
    spans, words = [], simulate._trial_words

    def trial_words(seed, start, stop):
        spans.append((start, stop, threading.current_thread()))
        return words(seed, start, stop)

    monkeypatch.setattr(simulate, "_trial_words", trial_words)
    return spans


def _span_starts(monkeypatch, cpus, n):
    """The sorted first trials of the spans of ``_run_on(monkeypatch, cpus,
    n)``, which leaves the CPU count at ``cpus``."""
    spans = _recorded_spans(monkeypatch)
    _run_on(monkeypatch, cpus, n)
    return sorted(a for a, _, _ in spans)


def _failing_spans(monkeypatch, fails, wait):
    """Make ``_tally`` raise ``RuntimeError(start)`` in each span whose start
    is in ``fails``, after sleeping ``wait[start]`` seconds (default 0)."""
    words, tally = simulate._trial_words, simulate._tally
    monkeypatch.setattr(simulate, "_trial_words", lambda seed, a, b: (a, words(seed, a, b)))

    def failing_tally(chunks, *thresholds):
        start, chunks = chunks
        time.sleep(wait.get(start, 0.0))
        if start in fails:
            raise RuntimeError(start)
        return tally(chunks, *thresholds)

    monkeypatch.setattr(simulate, "_tally", failing_tally)


class TestTrialSpans:
    @pytest.mark.parametrize("chunk", [None, 1000], ids=["own_chunk", "chunk1000"])
    @pytest.mark.parametrize("trials", list(_SPAN_TRIALS))
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_span_count_does_not_change_the_summary(self, monkeypatch, chunk, trials, cpus):
        if chunk is not None:
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
        chunk = simulate._CHUNK
        n = _SPAN_TRIALS[trials](chunk)
        expected = _run_on(monkeypatch, 1, n)
        spans = _recorded_spans(monkeypatch)
        summary = _run_on(monkeypatch, cpus, n)
        assert np.array_equal(summary.counts, expected.counts)
        assert summary.error_count == expected.error_count == 0
        # one span per CPU, but none without a whole chunk; contiguous and
        # each starting on a chunk boundary
        bounds = sorted((a, b) for a, b, _ in spans)
        assert len(bounds) == max(1, min(cpus, n // chunk))
        assert [a for a, _ in bounds] + [n] == [0] + [b for _, b in bounds]
        assert all(a % chunk == 0 for a, _ in bounds)

    def test_more_spans_than_cores_under_frequent_switches(self, monkeypatch):
        # each span writes its own cell, so no switch can lose a count
        expected = _run_on(monkeypatch, 1, 200_001)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            summary = _run_on(monkeypatch, 16, 200_001)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(summary.counts, expected.counts)

    def test_a_run_below_two_chunks_starts_no_thread(self, monkeypatch):
        spans = _recorded_spans(monkeypatch)
        _run_on(monkeypatch, 5, 2 * simulate._CHUNK - 1)
        assert [thread for _, _, thread in spans] == [threading.main_thread()]
        spans.clear()
        _run_on(monkeypatch, 5, 2 * simulate._CHUNK)
        assert sorted(thread is threading.main_thread() for _, _, thread in spans) == [False, True]

    @pytest.mark.parametrize(
        "cpus, failing, slow",
        [
            (2, "second", "second"),  # the second span alone fails, last
            (3, "second", "second"),
            (5, "second", "second"),
            (3, "later", "second"),  # every later span fails, the second last
            (5, "later", "second"),
            (5, "first", "later"),  # the caller's own span fails while the others run
        ],
    )
    def test_a_span_error_reaches_the_caller_after_every_thread_ends(self, monkeypatch, cpus, failing, slow):
        n = 5 * simulate._CHUNK
        starts = _span_starts(monkeypatch, cpus, n)
        pick = {"first": starts[:1], "second": starts[1:2], "later": starts[1:]}
        _failing_spans(monkeypatch, set(pick[failing]), {a: 0.05 for a in pick[slow]})
        before = threading.active_count()
        with pytest.raises(RuntimeError) as error:
            run_ssd_trials(*_SPAN_CASE, n, 5)
        assert error.value.args == (pick[failing][0],)
        assert threading.active_count() == before

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert simulate._usable_cpus() == len(os.sched_getaffinity(0))
        # without the affinity call, every CPU of the machine; 1 where unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert simulate._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._usable_cpus() == 1


def _assert_analytic_table(s, t, q1b, q1c):
    """The table from the two 6x6 dilations is the product of the stage outcomes."""

    def stage(q1, q2):  # [i, k]: inconclusive with probability q_i, else declare i+1
        return np.array([[q1, 1.0 - q1, 0.0], [q2, 0.0, 1.0 - q2]])

    r = s / t
    table = _outcome_table(Scenario(s, 0.3), t, q1b, q1c)
    bob = stage(q1b, r * r / q1b if q1b > 0.0 else 0.0)
    charlie = stage(q1c, t * t / q1c)
    expected = bob[:, :, None] * charlie[:, None, :]
    assert np.abs(table - expected).max() <= 1e-12
    # a declaration of the other state is impossible, not merely rare
    assert np.all(table[expected == 0.0] == 0.0)


unit = st.floats(min_value=0.0, max_value=1.0)


class TestOutcomeTable:
    @settings(max_examples=200, deadline=None)
    @given(unit, unit, unit, unit)
    def test_dilations_match_the_analytic_product(self, s, wt, wb, wc):
        t = s + wt * (1.0 - s)
        assume(t > 0.0)
        r = s / t
        q1b = r * r + wb * (1.0 - r * r)
        q1c = t * t + wc * (1.0 - t * t)
        assume(q1c > 0.0 and (q1b > 0.0 or r == 0.0))  # r^2 may underflow to 0
        _assert_analytic_table(s, t, q1b, q1c)

    # nearly identical state pairs: the completed basis must stay orthogonal
    @pytest.mark.parametrize(
        "s,t,q1b,q1c",
        [
            (0.5, 1.0 - 1e-11, 1.0, 1.0),
            (0.0, 1.0 - 1e-9, 0.0, 1.0),
            (0.0, 1.0 - 2.0**-53, 0.0, (1.0 - 2.0**-53) ** 2),
            (0.999, 1.0 - 2.0**-53, 1.0, 1.0),
        ],
    )
    def test_nearly_identical_pairs(self, s, t, q1b, q1c):
        _assert_analytic_table(s, t, q1b, q1c)


# counts.ravel() (preparation, Bob ok, Charlie ok; fail before ok) of
# run_ssd_trials(Scenario(s, p1), t, q1b, q1c, 200_000, seed) for each seed in
# _PINNED_SEEDS; every run has error_count 0.
_PINNED_SEEDS = (0, 1, 42, 2**64 + 3)
_PINNED_COUNTS = {
    (0.04, 0.5, 0.2, 0.2, 0.2): (
        (4105, 15870, 16004, 63864, 3971, 16232, 15948, 64006),
        (4062, 16123, 16167, 63832, 4113, 15862, 15940, 63901),
        (3972, 15980, 16085, 63757, 3960, 16300, 15995, 63951),
        (3953, 16068, 16049, 63794, 3953, 15991, 15812, 64380),
    ),
    (0.1, 0.3, 0.5, 0.3, 0.6): (
        (10804, 7065, 25293, 16684, 7776, 11061, 50518, 70799),
        (10932, 7267, 25123, 16819, 7806, 10852, 50574, 70627),
        (10688, 7144, 25325, 16634, 7703, 11236, 50731, 70539),
        (10787, 7168, 25142, 16789, 7632, 10977, 50564, 70941),
    ),
    (0.3, 0.2, 0.3, 1.0, 0.5): (  # t = s: Bob learns nothing
        (20016, 19701, 0, 0, 28703, 131580, 0, 0),
        (19958, 19995, 0, 0, 29065, 130982, 0, 0),
        (20041, 19986, 0, 0, 28767, 131206, 0, 0),
        (20002, 19984, 0, 0, 28679, 131335, 0, 0),
    ),
    (0.3, 0.2, 1.0, 0.5, 1.0): (  # t = 1: Charlie gets identical states
        (19799, 0, 19918, 0, 29052, 0, 131231, 0),
        (19916, 0, 20037, 0, 28881, 0, 131166, 0),
        (19901, 0, 20126, 0, 29006, 0, 130967, 0),
        (19859, 0, 20127, 0, 28639, 0, 131375, 0),
    ),
    (0.0, 0.2, 1.0, 0.0, 1.0): (  # s = 0: Bob always succeeds
        (0, 0, 39717, 0, 0, 0, 160283, 0),
        (0, 0, 39953, 0, 0, 0, 160047, 0),
        (0, 0, 40027, 0, 0, 0, 159973, 0),
        (0, 0, 39986, 0, 0, 0, 160014, 0),
    ),
    (0.36, 0.25, 0.6, 0.7, 0.5): (
        (17545, 17180, 7506, 7487, 55533, 21690, 52843, 20216),
        (17485, 17409, 7503, 7652, 55733, 21499, 52406, 20313),
        (17334, 17279, 7536, 7641, 55893, 21624, 52417, 20276),
        (17390, 17469, 7630, 7520, 55268, 21873, 52505, 20345),
    ),
    (1.0, 0.5, 1.0, 1.0, 1.0): (  # s = 1: nobody succeeds
        (99843, 0, 0, 0, 100157, 0, 0, 0),
        (100184, 0, 0, 0, 99816, 0, 0, 0),
        (99794, 0, 0, 0, 100206, 0, 0, 0),
        (99864, 0, 0, 0, 100136, 0, 0, 0),
    ),
    (0.5, 0.3, math.sqrt(0.5), 1.0, 1.0): (  # both observers ignore state 1
        (59846, 0, 0, 0, 34970, 35132, 35193, 34859),
        (60141, 0, 0, 0, 35163, 34793, 34916, 34987),
        (59791, 0, 0, 0, 35152, 35209, 34837, 35011),
        (59886, 0, 0, 0, 34860, 35085, 35210, 34959),
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_COUNTS), ids=str)
def test_pinned_trial_counts(case):
    s, p1, t, q1b, q1c = case
    for seed, expected in zip(_PINNED_SEEDS, _PINNED_COUNTS[case]):
        summary = run_ssd_trials(Scenario(s, p1), t, q1b, q1c, 200_000, seed)
        assert tuple(summary.counts.ravel().tolist()) == expected, seed
        assert summary.error_count == 0


def _cumulative(probs, closed=False):
    """Bob's (2, 3) and Charlie's (6, 3) cumulative rows of the table probs;
    with ``closed``, as run_ssd_trials builds them: every entry from a row's
    last outcome of positive probability on is 1.0, and a zero row stays
    zero. Unclosed, a row can end at a rounded 1 - 2^-53, whose edge words
    then reach the words above it."""
    probs_b = probs.sum(axis=2)
    probs_c = np.divide(
        probs, probs_b[..., None], out=np.zeros_like(probs), where=probs_b[..., None] > 0.0
    ).reshape(6, 3)
    rows = []
    for p in (probs_b, probs_c):
        cum = np.cumsum(p, axis=1)
        for row, prob in zip(cum, p):
            positive = np.flatnonzero(prob > 0.0)
            if closed and positive.size:
                row[positive[-1] :] = 1.0
        rows.append(cum)
    return tuple(rows)


def _trial_outcomes(u, p1, cum_b, cum_c):
    """Per-trial preparation (1 or 2), k_b and k_c: k is the first index with
    u < cum (by argmax over the gathered rows), 0 when there is none."""
    prep = np.where(u[:, 0] < p1, 1, 2)
    k_b = np.argmax(u[:, 1, None] < cum_b[prep - 1], axis=1)
    k_c = np.argmax(u[:, 2, None] < cum_c[(prep - 1) * 3 + k_b], axis=1)
    return prep, k_b, k_c


def _tally_loop(u, p1, cum_b, cum_c):
    """Reference for the sampler's tally: (2, 3, 3) counts of (preparation, k_b, k_c)."""
    prep, k_b, k_c = _trial_outcomes(u, p1, cum_b, cum_c)
    return np.bincount((prep - 1) * 9 + k_b * 3 + k_c, minlength=18).reshape(2, 3, 3)


def _summary_loop(u, p1, cum_b, cum_c):
    """Reference counts[i, b, c] and error_count, folded per trial."""
    prep, k_b, k_c = _trial_outcomes(u, p1, cum_b, cum_c)
    bob_ok = k_b == prep
    charlie_ok = k_c == prep
    errors = int((((k_b != 0) & ~bob_ok) | ((k_c != 0) & ~charlie_ok)).sum())
    code = (prep - 1) * 4 + bob_ok * 2 + charlie_ok
    return np.bincount(code, minlength=8).reshape(2, 2, 2), errors


_TOP_WORD = 2**64 - 1


def _uniforms(words):
    """numpy's Generator.random of Philox words (an array or one int): the
    top 53 bits times 2**-53."""
    return (words >> 11) * 2.0**-53


def _edge_words(values):
    """For each threshold m of the doubles ``values``, the words m * 2^11 - 1,
    m * 2^11 and m * 2^11 + 2^11 - 1 (the largest uniform below the value, and
    the least at or above it with its low bits clear and set), plus 0 and
    2^64 - 1."""
    words = {0, _TOP_WORD}
    for m in simulate._word_thresholds(np.ravel(values)).tolist():
        words.update({(m << 11) - 1, m << 11, (m << 11) + 2**11 - 1})
    return np.array(sorted(w for w in words if 0 <= w <= _TOP_WORD), dtype=np.uint64)


def _edge_trial_words(p1, cum_b, cum_c):
    """Every combination of edge words around p1 and each cumulative entry."""
    axes = np.meshgrid(
        _edge_words(p1), _edge_words(cum_b), _edge_words(cum_c), [2**63], indexing="ij"
    )
    return np.stack(axes, axis=-1).reshape(-1, 4).astype(np.uint64)


def _assert_tally_matches(probs, p1, words):
    """_tally, and run_ssd_trials on the table probs and the Philox words,
    agree with the float reference on the words' uniforms and the closed
    cumulative rows."""
    cum_b, cum_c = _cumulative(probs, closed=True)
    u = _uniforms(words)
    thresholds = [simulate._word_thresholds(c) for c in (p1, cum_b, cum_c)]
    assert np.array_equal(simulate._tally([words], *thresholds), _tally_loop(u, p1, cum_b, cum_c))
    assert np.array_equal(_uniforms(words), u)  # the tally never changes its input
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_outcome_table", lambda *args: probs)
        mp.setattr(simulate, "_trial_words", lambda seed, start, stop: iter([words[start:stop]]))
        summary = run_ssd_trials(Scenario(0.5, p1), 0.8, 0.7, 0.7, len(words), 0)
    counts, errors = _summary_loop(u, p1, cum_b, cum_c)
    assert np.array_equal(summary.counts, counts)
    assert summary.error_count == errors


@pytest.mark.parametrize(
    "case",
    [
        (0.36, 0.25, 0.6, 0.7, 0.5),
        (0.1, 0.3, 0.5, 0.3, 0.6),
        (0.3, 0.2, 0.3, 1.0, 0.5),  # t = s: Bob's declarations have probability 0
    ],
    ids=str,
)
def test_real_stream_matches_the_reference(case):
    # unpatched draws over three chunks, the last one short
    s, p1, t, q1b, q1c = case
    n, seed = 2 * simulate._CHUNK + 7, 2017
    summary = run_ssd_trials(Scenario(s, p1), t, q1b, q1c, n, seed)
    cum_b, cum_c = _cumulative(_outcome_table(Scenario(s, p1), t, q1b, q1c))
    counts, errors = _summary_loop(trial_uniforms(seed, 0, n), p1, cum_b, cum_c)
    assert np.array_equal(summary.counts, counts)
    assert summary.error_count == errors


class TestTally:
    @pytest.mark.parametrize("case", list(_PINNED_COUNTS), ids=str)
    def test_uniforms_on_and_beside_each_cumulative_entry(self, case):
        s, p1, t, q1b, q1c = case
        probs = _outcome_table(Scenario(s, p1), t, q1b, q1c)
        _assert_tally_matches(probs, p1, _edge_trial_words(p1, *_cumulative(probs)))

    def test_uniform_above_a_rounded_row_sum_takes_the_last_outcome(self):
        # a row whose sum rounds below 1 is closed at 1: the uniform just
        # above its rounded last entry declares that outcome, not outcome 0
        probs = _outcome_table(Scenario(0.1, 0.3), 0.5, 0.3, 0.6)
        cum_b, cum_c = _cumulative(probs)
        last = cum_b[1, 2]
        assert last < 1.0  # the cumulative sum rounds below 1
        above = np.nextafter(last, 1.0)  # a Philox uniform: doubles in [1/2, 1) are 2**-53 apart
        half = 2**63  # the word of uniform 1/2
        row = [int(0.9 * 2**53) << 11, int(above * 2**53) << 11, half, half]
        words = np.array([row], dtype=np.uint64)
        u = _uniforms(words)
        assert u[0, 1] == above
        prep, k_b, _ = _trial_outcomes(u, 0.3, cum_b, cum_c)
        assert (prep[0], k_b[0]) == (2, 0)  # on the row as summed
        prep, k_b, _ = _trial_outcomes(u, 0.3, *_cumulative(probs, closed=True))
        assert (prep[0], k_b[0]) == (2, 2)
        _assert_tally_matches(probs, 0.3, words)

    def test_rows_are_closed_from_their_last_possible_outcome(self):
        # on 200 seeded joint optima over the montecarlo workload's ranges,
        # and at t = s, where Bob's declarations have probability 0: every
        # threshold from a row's last outcome of positive probability on is
        # 2^53, which no word reaches, and a zero row's are all 0. Summed
        # rows left open gave 2^53 - 1 or 2^53 - 2 in 147 of 400 such tables
        rng = np.random.default_rng(2026)
        cases = []
        for s, p1 in rng.uniform([0.01, 0.02], [0.99, 0.5], (200, 2)).tolist():
            best = joint_optimal(Scenario(s, p1)).argmax
            cases.append((s, p1, best["t"], best["q1b"], best["q1c"]))
        cases += [(0.3, 0.2, 0.3, 1.0, 0.5), (0.5, 0.3, 0.5, 1.0, 0.4)]
        for s, p1, t, q1b, q1c in cases:
            probs = _outcome_table(Scenario(s, p1), t, q1b, q1c)
            _, m_b, m_c = simulate._trial_thresholds(Scenario(s, p1), t, q1b, q1c)
            probs_b = probs.sum(axis=2)
            probs_c = (probs / np.where(probs_b > 0.0, probs_b, 1.0)[..., None]).reshape(6, 3)
            for m, rows in ((m_b, probs_b), (m_c, probs_c)):
                for thresholds, prob in zip(m.tolist(), rows):
                    positive = np.flatnonzero(prob > 0.0)
                    if not positive.size:
                        assert thresholds == [0, 0, 0]
                        continue
                    assert thresholds[positive[-1] :] == [2**53] * (3 - positive[-1]), (s, p1, t)

    def test_most_distinct_thresholds(self):
        # every entry of Bob's two rows and Charlie's six rows distinct and
        # inside (0, 1): 2 * 7 * 19 = 266 codes, more than an int8 holds
        p1 = 0.3
        cum_b = np.arange(1, 7).reshape(2, 3) / 8
        cum_c = np.arange(1, 19).reshape(6, 3) / 20
        thresholds = [simulate._word_thresholds(c) for c in (p1, cum_b, cum_c)]
        assert [len(simulate._informative(m)) for m in thresholds] == [1, 6, 18]
        words = _edge_trial_words(p1, cum_b, cum_c)
        u = _uniforms(words)
        assert np.array_equal(
            simulate._tally([words], *thresholds), _tally_loop(u, p1, cum_b, cum_c)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_trial_thresholds", lambda *args: thresholds)
            mp.setattr(simulate, "_trial_words", lambda seed, start, stop: iter([words]))
            summary = run_ssd_trials(Scenario(0.5, p1), 0.8, 0.7, 0.7, len(words), 0)
        counts, errors = _summary_loop(u, p1, cum_b, cum_c)
        assert np.array_equal(summary.counts, counts)
        assert summary.error_count == errors

    def test_chunks_of_uneven_length(self):
        # a short chunk, then a longer one, then one of no rows: the tally
        # of all three is the tally of their words joined
        p1 = 0.25
        cum_b, cum_c = _cumulative(_outcome_table(Scenario(0.36, p1), 0.6, 0.7, 0.5), closed=True)
        thresholds = [simulate._word_thresholds(c) for c in (p1, cum_b, cum_c)]
        edges = _edge_trial_words(p1, cum_b, cum_c)
        words = np.vstack([edges, np.random.PCG64(11).random_raw((3000, 4))])
        chunks = [words[:100], words[100:], words[:0]]
        assert [len(c) for c in chunks] == [100, len(edges) + 2900, 0]
        assert np.array_equal(
            simulate._tally(chunks, *thresholds), _tally_loop(_uniforms(words), p1, cum_b, cum_c)
        )

    @pytest.mark.parametrize("m", [1, 2**52, 2**53 - 1])
    def test_word_threshold_decides_as_the_shifted_word(self, m):
        # the tally compares x >= m << 11 where the uniforms compare
        # x >> 11 >= m: one threshold m in every row, on both sides of it
        never = 2**53
        side = [(m << 11) - 1, m << 11]
        words = np.array([[a, b, c, 0] for a in side for b in side for c in side], dtype=np.uint64)
        expected = np.zeros((2, 3, 3), dtype=np.int64)
        for x in words.tolist():
            expected[tuple(int(v >> 11 >= m) for v in x[:3])] += 1
        rows = np.array([m, never, never], dtype=np.uint64)
        tally = simulate._tally([words], np.uint64(m), np.tile(rows, (2, 1)), np.tile(rows, (6, 1)))
        assert np.array_equal(tally, expected)

    def test_thresholds_outside_the_words_get_no_comparison(self):
        # m = 0 passes every word and m >= 2^53 none, 0 and 2^64 - 1 included
        m = np.array([0, 1, 2**52, 2**53 - 1, 2**53, 2**53 + 1, _TOP_WORD], dtype=np.uint64)
        assert simulate._informative(m) == [1, 2**52, 2**53 - 1]
        words = np.array([[0, 0, 0, 0], [_TOP_WORD] * 4], dtype=np.uint64)
        always = np.zeros((6, 3), dtype=np.uint64)
        never = np.full((6, 3), 2**53, dtype=np.uint64)
        # state 2 and k = 3 (outcome 0) in every row; state 1 and k = 0
        assert simulate._tally([words], np.uint64(0), always[:2], always)[1, 0, 0] == 2
        assert simulate._tally([words], np.uint64(2**53), never[:2], never)[0, 0, 0] == 2

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(st.just(0.0), unit), min_size=18, max_size=18),
        st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_tables_and_uniforms(self, weights, p1, seed):
        probs = np.array(weights).reshape(2, 3, 3)
        totals = probs.sum(axis=(1, 2), keepdims=True)
        assume(np.all(totals > 0.0))
        probs = probs / totals
        edges = _edge_trial_words(p1, *_cumulative(probs))
        words = np.vstack([edges, np.random.PCG64(seed).random_raw((2000, 4))])
        _assert_tally_matches(probs, p1, words)


# doubles in [0, 1], subnormals included, and one to four ulps above 1
_threshold_values = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
    st.integers(min_value=1, max_value=4).map(lambda k: 1.0 + k * 2.0**-52),
)


@settings(max_examples=300, deadline=None)
@given(_threshold_values, st.lists(st.integers(min_value=0, max_value=_TOP_WORD), max_size=20))
def test_word_thresholds_decide_as_the_uniforms_do(c, random_words):
    # uniform >= c exactly when the word's top 53 bits reach the threshold,
    # and uniform < c (the preparation's test) exactly when they do not
    m = int(simulate._word_thresholds(c))
    assert m == int(simulate._word_thresholds(np.array([c]))[0])
    for x in [*_edge_words(c).tolist(), *random_words]:
        u = _uniforms(x)
        assert ((x >> 11) >= m) == (u >= c), (c, x)
        assert ((x >> 11) < m) == (u < c), (c, x)
