"""Every public call gives Python values, whatever number types it is given.

``Scenario`` holds its fields as Python floats, so that a numpy scalar given
for one takes the same steps, and gives the same result, as the float it
holds. Each call that ``seqdisc/__init__.py`` exports is called here with
Python numbers and with the same values as ``np.float64`` (floats) and
``np.int64`` (ints): the two results must have one repr, and neither may
hold a numpy scalar anywhere, in a field, a tuple, a list or a dict (an
``argmax`` included). Arrays are results in their own right (a state pair,
a unitary) and are compared by their reprs.
"""

import dataclasses
import enum
import io

import numpy as np
import pytest

import seqdisc as sd


def _python(x):
    return x


def _numpy(x):
    return np.int64(x) if type(x) is int else np.float64(x)


def _scenario(v, s=0.36, p1=0.2):
    return sd.Scenario(v(s), v(p1))


def _correlations(v):
    return sd.CorrelationInput(v(0.3), v(0.6), v(0.6))


def _spec(v):
    return sd.SweepSpec("P1", v(0.1), v(0.5), v(3), {"s": v(0.3)}, ("ssd", "protocol2"))


def _csv(v):
    stream = io.StringIO()
    sd.write_csv(["p1", "ssd"], [[v(0.25), None], [v(1), v(0.5)]], stream)
    return stream.getvalue()


#: Each exported call (a class by its constructor) with its numbers given
#: through ``v``; some take ints where floats are usual (t = 1, s = 0), so
#: that np.int64 reaches them too.
_CALLS = {
    "Scenario": lambda v: [_scenario(v), sd.Scenario(v(1), v(0.5))],
    "StrategyParams": lambda v: sd.StrategyParams(v(0.5), v(0.18), v(0.3)),
    "StrategyParams.from_q1": lambda v: [
        sd.StrategyParams.from_q1(v(0.5), v(0.3)),
        sd.StrategyParams.from_q1(v(1), v(0)),
    ],
    "entropy_H": lambda v: [sd.entropy_H(v(0.3)), sd.entropy_H(v(1))],
    "make_state_pair": lambda v: sd.make_state_pair(v(0.36), v(3)),
    "CorrelationInput": _correlations,
    "correlation_report": lambda v: [
        sd.correlation_report(_correlations(v)),
        sd.correlation_report(sd.CorrelationInput(v(0.3), v(1), v(1))),
    ],
    "discord_left": lambda v: sd.discord_left(_correlations(v)),
    "discord_right": lambda v: sd.discord_right(_correlations(v)),
    "left_discord_measurement_oracle": lambda v: sd.left_discord_measurement_oracle(_correlations(v)),
    "certify": lambda v: [
        sd.certify(["bob", "joint"], [v(0.36), v(0)], [v(0.2), v(0.5)], v(1e-6)),
        sd.certify(["protocol1"], [v(0)], [v(0.5)], v(1)),
    ],
    "grid_maximize_bob": lambda v: sd.grid_maximize_bob(_scenario(v), v(0.6)),
    "grid_maximize_charlie": lambda v: sd.grid_maximize_charlie(_scenario(v), v(1)),
    "grid_maximize_cloning": lambda v: sd.grid_maximize_cloning(_scenario(v)),
    "grid_maximize_joint": lambda v: sd.grid_maximize_joint(_scenario(v)),
    "grid_maximize_protocol2": lambda v: [
        sd.grid_maximize_protocol2(_scenario(v)),
        sd.grid_maximize_protocol2(_scenario(v, 0.6, 0.1)),
    ],
    "grid_maximize_union_ssd": lambda v: sd.grid_maximize_union_ssd(_scenario(v)),
    "at_least_one_protocol3": lambda v: sd.at_least_one_protocol3(_scenario(v)),
    "at_least_one_ssd": lambda v: sd.at_least_one_ssd(_scenario(v)),
    "clone_optimal_for_prior": lambda v: sd.clone_optimal_for_prior(_scenario(v)),
    "protocol1_optimal": lambda v: [sd.protocol1_optimal(_scenario(v)), sd.protocol1_optimal(_scenario(v, 0, 0.5))],
    "protocol2_critical_priors": lambda v: [sd.protocol2_critical_priors(v(0.36)), sd.protocol2_critical_priors(v(1))],
    "protocol2_optimal": lambda v: [sd.protocol2_optimal(_scenario(v)), sd.protocol2_optimal(_scenario(v, 0.6, 0.1))],
    "protocol3_optimal": lambda v: sd.protocol3_optimal(_scenario(v)),
    "build_discrimination_unitary": lambda v: sd.build_discrimination_unitary(
        ([v(1), v(0)], [v(0.6), v(0.8)]), ([v(0), v(1)], [v(0.8), v(0.6)])
    ),
    "run_ssd_trials": lambda v: sd.run_ssd_trials(_scenario(v), v(0.6), v(0.6), v(1), v(1000), v(7)),
    "bob_optimal": lambda v: [sd.bob_optimal(_scenario(v), v(0.6)), sd.bob_optimal(_scenario(v, 0, 0.5), v(1))],
    "bob_success": lambda v: [
        sd.bob_success(_scenario(v, 0.3), v(0.6), v(0.5)),
        sd.bob_success(_scenario(v, 0, 0.5), v(1), v(1)),
    ],
    "charlie_optimal": lambda v: [sd.charlie_optimal(_scenario(v), v(0.6)), sd.charlie_optimal(_scenario(v), v(1))],
    "critical_prior_PC": lambda v: [sd.critical_prior_PC(v(0.1)), sd.critical_prior_PC(v(0.5))],
    "joint_optimal": lambda v: [sd.joint_optimal(_scenario(v)), sd.joint_optimal(_scenario(v, 0.04, 0.3))],
    "joint_success": lambda v: [
        sd.joint_success(_scenario(v, 0.3), v(0.6), v(0.5), v(0.5)),
        sd.joint_success(_scenario(v, 0, 0.5), v(1), v(1), v(1)),
    ],
    "solve_q_star": lambda v: sd.solve_q_star(_scenario(v, 0.04, 0.3)),
    "SweepSpec": _spec,
    "run_sweep": lambda v: sd.run_sweep(_spec(v)),
    "run_figure": lambda v: sd.run_figure("5"),
    "write_csv": _csv,
}

#: Exported records that the calls above return, holding what the library
#: puts in them: they are checked as parts of those results.
_RESULTS = {"CertificationRow", "CloneParams", "CorrelationReport", "CriticalPrior", "PiecewiseResult", "TrialSummary"}


def _numpy_scalars(x, at="result"):
    """Where in ``x`` a numpy scalar is: fields of dataclasses and named
    tuples, items of tuples and lists, and keys and values of dicts."""
    if isinstance(x, np.generic):
        return [f"{at}: {type(x).__name__}"]
    if dataclasses.is_dataclass(x):
        parts = [(f".{f.name}", getattr(x, f.name)) for f in dataclasses.fields(x)]
    elif isinstance(x, tuple) and hasattr(x, "_fields"):
        parts = [(f".{name}", getattr(x, name)) for name in x._fields]
    elif isinstance(x, (tuple, list)):
        parts = [(f"[{i}]", item) for i, item in enumerate(x)]
    elif isinstance(x, dict):
        parts = [(f"[{k!r}]", v) for k, v in x.items()] + [(" key", k) for k in x]
    else:
        return []
    return [found for suffix, part in parts for found in _numpy_scalars(part, at + suffix)]


def test_every_exported_call_is_covered():
    # a new export is added to _CALLS, or to _RESULTS if it is a record
    # that a call returns; exceptions and the case labels take no numbers
    exported = {
        name
        for name, value in vars(sd).items()
        if callable(value)
        and not name.startswith("_")
        and not (isinstance(value, type) and issubclass(value, (Exception, enum.Enum)))
    }
    assert {name.split(".")[0] for name in _CALLS} | _RESULTS == exported


@pytest.mark.parametrize("name", list(_CALLS))
def test_numpy_inputs_give_the_python_result(name):
    python, numpy = _CALLS[name](_python), _CALLS[name](_numpy)
    assert repr(numpy) == repr(python)
    assert _numpy_scalars(python) == [] and _numpy_scalars(numpy) == []


def test_the_search_finds_numpy_scalars():
    # the check above cannot pass by not looking: each place it reads
    result = sd.PiecewiseResult(0.5, sd.CaseLabel.CASE_I, {"q1b": np.float64(0.5)}, np.float64(0.1))
    found = _numpy_scalars([(result, {np.int64(1): 2}, sd.CriticalPrior(np.float64(0.5), True))])
    assert found == [
        "result[0][0].argmax['q1b']: float64",
        "result[0][0].boundary_prior: float64",
        "result[0][1] key: int64",
        "result[0][2].value: float64",
    ]
