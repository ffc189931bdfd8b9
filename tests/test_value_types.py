"""The value types are named tuples, all but ``CertificationRow``, the one
dataclass left.

The five that check their fields (``Scenario``, ``StrategyParams``,
``PiecewiseResult``, ``CorrelationInput`` and ``SweepSpec``) check them on
every way of building a value: the constructor, ``_make``, ``_replace``, a
copy and unpickling. Every type copies and pickles to an equal value, and
``TrialSummary`` equals only itself.
"""

import copy
import dataclasses
import pickle
import re
import sys

import numpy as np
import pytest

import seqdisc as sd

#: One valid value of each checked type, a field, a bad value of that field
#: and the error that the constructor raises for it.
_CHECKED = {
    "Scenario": (sd.Scenario(0.3, 0.2), "p1", 0.9, sd.DomainError),
    "StrategyParams": (sd.StrategyParams(0.5, 0.18, 0.3), "q2", 0.5, sd.ConstraintError),
    "PiecewiseResult": (sd.PiecewiseResult(0.5, sd.CaseLabel.CASE_I, {"q1b": 0.6}), "value", 1.5, sd.NumericError),
    "CorrelationInput": (sd.CorrelationInput(0.3, 0.6, 0.6), "t", 1.5, sd.DomainError),
    "SweepSpec": (sd.SweepSpec("P1", 0.1, 0.5, 3, {"s": 0.3}, ("ssd",)), "fixed", None, sd.DomainError),
}


def _values():
    """One value of each of the nine value types, by type name."""
    values = {name: value for name, (value, *_) in _CHECKED.items()}
    values["CloneParams"] = sd.clone_optimal_for_prior(sd.Scenario(0.36, 0.2))
    values["CorrelationReport"] = sd.correlation_report(sd.CorrelationInput(0.3, 0.6, 0.6))
    (values["CertificationRow"],) = sd.certify(["protocol1"], [0.36], [0.2])
    values["TrialSummary"] = sd.run_ssd_trials(sd.Scenario(0.36, 0.2), 0.6, 0.5, 0.6, 100, 1)
    return values


_VALUES = _values()


@pytest.mark.parametrize("name", sorted(_CHECKED))
def test_replace_checks_as_the_constructor(name):
    value, field, bad, error = _CHECKED[name]
    with pytest.raises(error) as raised:
        type(value)(**{**value._asdict(), field: bad})
    with pytest.raises(error, match=f"^{re.escape(str(raised.value))}$"):
        value._replace(**{field: bad})


@pytest.mark.parametrize("name", sorted(_CHECKED))
def test_make_checks_as_the_constructor(name):
    value, field, bad, error = _CHECKED[name]
    fields = {**value._asdict(), field: bad}
    with pytest.raises(error):
        type(value)._make(fields.values())


@pytest.mark.parametrize("name", sorted(_CHECKED))
def test_replace_and_make_normalize_as_the_constructor(name):
    value = _CHECKED[name][0]
    assert type(value)._make(value) == value and type(type(value)._make(value)) is type(value)
    assert value._replace() == value and type(value._replace()) is type(value)
    with pytest.raises(ValueError, match="unexpected field names"):
        value._replace(bogus=1)


def test_replace_holds_python_floats():
    sc = sd.Scenario(0.3, 0.2)._replace(p1=np.float64(0.25))
    assert type(sc.p1) is float and sc == sd.Scenario(0.3, 0.25)
    spec = _CHECKED["SweepSpec"][0]._replace(steps=np.int64(5), fixed={"s": np.float64(0.4)})
    assert type(spec.steps) is int and type(spec.fixed["s"]) is float


@pytest.mark.parametrize("name", sorted(set(_VALUES) - {"TrialSummary"}))
def test_copy_and_pickle_give_equal_values(name):
    value = _VALUES[name]
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value and repr(copied) == repr(value)


def test_values_are_tuples():
    sc = sd.Scenario(0.3, 0.2)
    s, p1 = sc
    assert (s, p1) == sc == (0.3, 0.2) and sc[1] == 0.2
    assert hash(sc) == hash((0.3, 0.2))
    assert sc._asdict() == {"s": 0.3, "p1": 0.2} and sd.Scenario._fields == ("s", "p1")
    with pytest.raises(AttributeError):
        sc.s = 0.4
    with pytest.raises(AttributeError):
        sc.extra = 1


def test_certification_row_is_the_one_dataclass():
    # the benchmark's self-test builds a bad row with dataclasses.replace;
    # every other class of the package is cheaper to create
    import seqdisc.cli  # noqa: F401

    made = {
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "seqdisc"
        for attr, value in vars(module).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == name
    }
    assert made == {"seqdisc.oracle.CertificationRow"}
    row = _VALUES["CertificationRow"]
    assert dataclasses.replace(row, worst_gap=2.0).worst_gap == 2.0


def test_trial_summary_equals_only_itself():
    summary = _VALUES["TrialSummary"]
    again = sd.run_ssd_trials(sd.Scenario(0.36, 0.2), 0.6, 0.5, 0.6, 100, 1)
    assert summary == summary and not summary != summary
    assert summary != again and not summary == again
    # nor a tuple of its fields, whose compare would reach the counts array
    for fields in (tuple(summary), (*summary[:2], summary.counts.copy(), summary.error_count)):
        assert summary != fields and not summary == fields
        assert fields != summary and not fields == summary
    assert tuple(summary)[:2] == tuple(again)[:2] and np.array_equal(summary.counts, again.counts)
    assert len({summary, again}) == 2
    for copied in (copy.copy(summary), pickle.loads(pickle.dumps(summary))):
        assert copied != summary and repr(copied) == repr(summary)
        assert np.array_equal(copied.counts, summary.counts)


def test_trial_summary_repr_leaves_out_counts():
    summary = sd.TrialSummary(100, 1, np.zeros((2, 2, 2), dtype=np.int64), 0)
    assert repr(summary) == "TrialSummary(n_trials=100, seed=1, error_count=0)"

