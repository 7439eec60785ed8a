"""Stepsize-rule bounds and config parsing over whole input classes, drawn by hypothesis.

Every rule with ``stepsize`` must return a positive step inside its own
bounds for any positive alpha_{k-1} and theta_{k-1} and any curvature
estimate L >= 0, up to alpha_{k-1} L = 9.4e153.  Just above that, at
sqrt(float max / 2) = 9.48e153, AdGD2's bracket 2 (alpha L)^2 - 1
overflows and its step becomes 0.  ``parse_config``
must turn any text into a config or a ``ConfigError``, never another
exception.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from adgd.experiments import ConfigError, ExperimentConfig, parse_config
from adgd.solvers import ALPHA_CLAMP, RULES

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
MAX_PRODUCT = 9.4e153
SQRT2 = math.sqrt(2.0)
EPS = 1e-12


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _adgd1(rule, step, alpha, theta, L):
    return (step <= math.sqrt(1.0 + theta) * alpha
            and step * L <= (1.0 + EPS) / SQRT2)


def _adgd2(rule, step, alpha, theta, L):
    t = step * L
    return (step <= math.sqrt(2.0 / 3.0 + theta) * alpha
            and t * t - (step / alpha) ** 2 / 2.0 <= 0.5 * (1.0 + EPS))


def _oldadgd(rule, step, alpha, theta, L):
    return step <= math.sqrt(1.0 + theta) * alpha and step * L <= 0.5 * (1.0 + EPS)


def _fixed(rule, step, alpha, theta, L):
    return step == rule.alpha


def _badgd(rule, step, alpha, theta, L):   # no growth bound, by design
    return step <= ALPHA_CLAMP and step * (rule.c * L) <= 1.0 + EPS


# rule kind -> (rule drawn from its parameters, growth and curvature bounds)
BOUNDS = {
    "adgd1": (st.just(RULES["adgd1"]()), _adgd1),
    "adgd2": (st.just(RULES["adgd2"]()), _adgd2),
    "oldadgd": (st.just(RULES["oldadgd"]()), _oldadgd),
    "fixed": (_log_uniform(1e-100, 1e100).map(RULES["fixed"]), _fixed),
    "badgd": (st.floats(1.0, 1e6).map(RULES["badgd"]), _badgd),
}


def test_bounds_cover_every_rule_with_a_stepsize():
    assert set(BOUNDS) == {k for k, cls in RULES.items()
                           if hasattr(cls, "stepsize") and k != "adproxgd"}


@st.composite
def step_inputs(draw):
    alpha = draw(_log_uniform(1e-150, 1e150))
    theta = draw(_log_uniform(1e-150, 1e150))
    L = draw(st.one_of(st.just(0.0), _log_uniform(1e-150, MAX_PRODUCT).map(lambda t: t / alpha)))
    return alpha, theta, L


@pytest.mark.parametrize("kind", sorted(BOUNDS))
def test_stepsize_positive_and_within_bounds(kind):
    rules, within = BOUNDS[kind]

    @PROPERTY_SETTINGS
    @given(rules, step_inputs())
    def check(rule, inputs):
        alpha, theta, L = inputs
        step = rule.stepsize(alpha, theta, L)
        assert step > 0.0 and math.isfinite(step)
        assert within(rule, step, alpha, theta, L)

    check()


# sections of key = value lines, so that draws get past the line syntax and
# reach the checks on each value
EXPERIMENT_KEYS = ["name", "problem", "seed", "scale", "out", "plot", "max_iter",
                   "grad_tol", "alpha0", "reference"]
RULE_KEYS = ["s", "r", "c", "alpha"]
VALUES = ["1", "0", "-1", "2.5", "1e400", "-1e400", "nan", "inf", "1e-9", "search",
          "yes", "no", "auto", "none", "desk", "paper", "all", "mle", "lrmc,curve",
          "quadratic", "adgd1", "adgd2", "adproxgd", "armijo", "fixed", "badgd", ""]
VALUE = st.one_of(st.sampled_from(VALUES), st.sampled_from(VALUES), st.text(max_size=8))


def _items(keys):
    return st.dictionaries(st.sampled_from(keys), VALUE, max_size=len(keys))


@st.composite
def config_text(draw):
    parts = ["[experiment]"] if draw(st.integers(0, 9)) else []
    parts += [f"{key} = {value}" for key, value in draw(_items(EXPERIMENT_KEYS)).items()]
    for i in range(draw(st.integers(0, 2))):
        parts.append(draw(st.sampled_from([f"[run.{i}]", "[run]", "[other]"])))
        parts += [f"{key} = {value}" for key, value in
                  draw(_items(["problem", "rule"] + RULE_KEYS)).items()]
    if draw(st.integers(0, 9)) == 0:   # a line of anything, anywhere
        parts.insert(draw(st.integers(0, len(parts))), draw(st.text(max_size=20)))
    return "\n".join(parts)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.one_of(st.text(), config_text()))
def test_parse_config_returns_config_or_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
