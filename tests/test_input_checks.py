"""Each public entry point rejects bad input with a ValueError that names the fault.

One row per input check: the call and the start of its message.
"""

import json
import re

import numpy as np
import pytest

from genbounds import bounds, counterexample as cex, info, learning, trajectory, validation
from genbounds.cli import _load_trajectory_spec
from genbounds.io import load_problem

from conftest import bank_problem

P = np.array([[0.3, 0.2], [0.1, 0.4]])
PS = P.sum(axis=1)
PWGS = P / PS[:, None]
Q = np.array([0.5, 0.5])
G = np.zeros((2, 2))
F = np.ones((2, 2))
PROB3 = learning.FiniteLearningProblem(loss=np.zeros((2, 3)), mu=Q)  # 3 hypotheses
GIBBS3 = learning.GibbsAlgorithm(info.Pmf.uniform(3), 1.0)
INST = cex.ScoInstance(2)
QUAD = trajectory.QuadraticToy()
GRID = QUAD.default_quantizer()


# the benchmark's bank problem 0 at n = 3: a 20 x 4 type-level joint
BANK0 = bank_problem(0)
BANK_JOINT, BANK_TYPES = learning.induced_joint(BANK0, learning.GibbsAlgorithm(info.Pmf.uniform(4), 1.0), 3)
BANK_PS = np.asarray(BANK_JOINT.marginal_s())
BANK_Q = np.asarray(BANK_JOINT.marginal_w())
BANK_PWS = np.asarray(BANK_JOINT) / BANK_PS[:, None]
BANK_G = learning.gen_table(BANK0, BANK_TYPES)


def _bank_prop5(mode, **kw):
    return bounds.prop5_bound(mode, P_S=BANK_PS, q_hat=BANK_Q, g=BANK_G, delta=0.1, epsilon=10.0, s_index=5, **kw)


class WideLearner(learning.Algorithm):
    """A learner whose posteriors have 5 entries, whatever the problem."""

    def posteriors(self, prob, counts):
        return np.full((len(counts), 5), 0.2)


def _prop5(mode, **kw):
    return bounds.prop5_bound(mode, P_S=PS, q_hat=Q, g=G, delta=0.1, epsilon=0.0, s_index=0, **kw)


def _json(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return path


CHECKS = {
    "prop5 i without pi": (lambda t: _prop5("i"), "mode i needs pi, p_quant and f"),
    "prop5 ii without kernel": (lambda t: _prop5("ii", f=F), "mode ii needs kernel, P_WgS, w_index and f"),
    "prop5 kernel breaks the distortion": (
        lambda t: _prop5("ii", kernel=np.eye(2), P_WgS=PWGS, w_index=0, f=F), "kernel violates the declared"
    ),
    "prop5 unknown mode": (lambda t: _prop5("iii"), "mode must be 'i' or 'ii'"),
    "thm5 i 1-D p_hat": (
        lambda t: bounds.thm5_expectation_bound("i", BANK_JOINT, BANK_Q, BANK_Q, BANK_G, BANK_G, None, epsilon=10),
        "p_hat has shape (4,), expected (20, 4)",
    ),
    "channel_kl q_hat rows": (
        lambda t: bounds.channel_kl(BANK_PS, BANK_PWS, BANK_PWS[:2]), "q_hat has shape (2, 4), expected (4,) or (20, 4)"
    ),
    "prop5 ii P_WgS rows": (
        lambda t: _bank_prop5("ii", kernel=np.eye(4), P_WgS=BANK_PWS[:2], w_index=0, f=BANK_G),
        "P_WgS has shape (2, 4), expected (20, 4)",
    ),
    "prop5 i f rows": (
        lambda t: _bank_prop5("i", pi=BANK_PWS[5], p_quant=BANK_PWS[5], f=BANK_G[:2]),
        "f has shape (2, 4), expected (20, 4)",
    ),
    "thm5 surrogate without sigma_g": (
        lambda t: bounds.thm5_expectation_bound("i", P, PWGS, Q, F, F, 1.0, mgf="surrogate"),
        "surrogate path needs sigma_g",
    ),
    "thm5 ii alpha <= 1": (
        lambda t: bounds.thm5_expectation_bound("ii", P, PWGS, Q, F, F, None, alpha=1.0), "part ii needs alpha > 1"
    ),
    "thm5 unknown part": (lambda t: bounds.thm5_expectation_bound("iii", P, PWGS, Q, F, F, 1.0), "part must be"),
    "problem loss not 2-D": (
        lambda t: learning.FiniteLearningProblem(loss=np.zeros(3), mu=[1.0]), "loss must be a non-empty (z, w)"
    ),
    "problem mu size": (lambda t: learning.FiniteLearningProblem(loss=G, mu=[1.0]), "mu size must match"),
    "problem loss above B": (
        lambda t: learning.FiniteLearningProblem(loss=2 * F, mu=Q, bound=1.0), "loss exceeds the declared bound B"
    ),
    "2-D dataset": (lambda t: learning.Dataset(np.zeros((2, 2), int)), "a dataset is a 1-D vector"),
    "induced_joint posterior width": (
        lambda t: learning.induced_joint(PROB3, WideLearner(), 2), "expected 3 posteriors over 3 hypotheses, got (3, 5)"
    ),
    "MC posterior width": (
        lambda t: validation.mc_expectation_validate(PROB3, WideLearner(), 1.0, 2, 100, 0),
        "expected 3 posteriors over 3 hypotheses, got (3, 5)",
    ),
    "MC NaN bound": (
        lambda t: validation.mc_tail_validate(PROB3, GIBBS3, lambda s, w, post: float("nan"), 2, 0.1, 100, 0),
        "bound_fn returned NaN",
    ),
    "MC non-real bound": (
        lambda t: validation.mc_tail_validate(PROB3, GIBBS3, lambda s, w, post: 1j, 2, 0.1, 100, 0),
        "bound_fn must return one real number, got 1j",
    ),
    "Gibbs prior width": (
        lambda t: learning.induced_joint(PROB3, learning.GibbsAlgorithm(info.Pmf.uniform(5), 1.0), 2),
        "the prior has 5 entries, but the problem has 3 hypotheses",
    ),
    "Pmf of nothing": (lambda t: info.Pmf([]), "expected a non-empty 1-D probability array"),
    "binary_kl a > 1": (lambda t: info.binary_kl(1.5, 0.5), "a must lie in [0, 1]"),
    "binary_kl b > 1": (lambda t: info.binary_kl(0.5, 1.5), "b must lie in [0, 1]"),
    "binary_kl_inverse a < 0": (lambda t: info.binary_kl_inverse(-0.5, 0.1), "a must lie in [0, 1]"),
    "trajectory t2 <= t1": (
        lambda t: trajectory.TrajectoryProcess(3, 3, np.array([], int), GRID, np.array([])), "need t2 > t1"
    ),
    "trajectory window length": (
        lambda t: trajectory.TrajectoryProcess(0, 3, np.array([0, 1]), GRID, np.zeros(2)), "window length mismatch"
    ),
    "simulate window": (
        lambda t: trajectory.simulate_trajectory(QUAD, [0, 1], 0.1, 10, 0, t1=5, t2=20), "window must satisfy"
    ),
    "estimate_M rows": (lambda t: trajectory.estimate_M(np.full((3, 2), 0.5), Q, 0.1), "pi_S rows must match"),
    "lr_sweep of no rates": (lambda t: trajectory.lr_sweep(QUAD, [], 2), "lr grid must be non-empty"),
    "run_gd shape": (lambda t: cex.run_gd(INST, np.zeros((2, 3))), "s must be an (n, d) bit matrix"),
    "run_gd mode": (lambda t: cex.run_gd(INST, np.zeros((2, INST.d)), "other"), "mode must be 'iterative'"),
    "assemble_bound mode": (lambda t: cex.assemble_bound(INST, 1.0, "other"), "mode must be 'expectation'"),
    "problem file missing key": (
        lambda t: load_problem(_json(t, {"z_alphabet": 1, "w_alphabet": 1, "loss": [[0.0]]})),
        "problem file missing key(s): ['mu']",
    ),
    "problem file loss mis-nested": (
        lambda t: load_problem(_json(t, {"z_alphabet": 2, "w_alphabet": 2, "loss": [[0.0], [0.8], [0.6], [0.1]],
                                         "mu": [0.5, 0.5]})),
        "problem file key 'loss' must be a flat row-major list of 4 numbers or a (2, 2) nested list, got shape (4, 1)",
    ),
    "unknown trajectory model": (lambda t: _load_trajectory_spec(_json(t, {"model": "cubic"})), "unknown trajectory"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_bad_input_raises_its_message(name, tmp_path):
    call, message = CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call(tmp_path)
