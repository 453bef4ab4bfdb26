"""Monte Carlo validation of bound guarantees and the random-coding covering simulator.

Tail guarantees are validated by counting per-trial violations against a
3-sigma binomial buffer around the target delta; expectation bounds by a
mean-vs-CI comparison. The covering simulator draws random hypothesis books
and estimates the excess-distortion failure exponent of variable-size
covering at finite block lengths m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .info import Pmf
from .learning import (
    Algorithm,
    FiniteLearningProblem,
    GibbsAlgorithm,
    enumerate_types,
    gen_errors,
    gen_table,
    induced_joint,
)
from .seeding import rng as _rng, rngs

__all__ = [
    "ValidationReport",
    "HypothesisBook",
    "mc_tail_validate",
    "mc_expectation_validate",
    "build_hypothesis_book",
    "covering_failure_estimate",
    "CoveringRow",
    "covering_default_instance",
    "BookCapError",
]

BOOK_CAP = 200_000


class BookCapError(RuntimeError):
    """Raised when the requested hypothesis book would exceed the size cap."""


@dataclass(frozen=True)
class ValidationReport:
    trials: int
    violations: int
    target_delta: float

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials

    @property
    def binomial_se(self) -> float:
        # SE at the target rate: the pass rule tests H0 "violation prob <= delta"
        return math.sqrt(self.target_delta * (1 - self.target_delta) / self.trials)

    @property
    def passed(self) -> bool:
        return self.violation_rate <= self.target_delta + 3 * self.binomial_se

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "target_delta": self.target_delta,
            "binomial_se": self.binomial_se,
            "pass": self.passed,
        }


def _draw_trial(prob, alg, n, gen):
    s = gen.choice(prob.z_alphabet_size, size=n, p=np.asarray(prob.mu))
    post = np.asarray(alg.posterior(prob, s))
    w = int(gen.choice(post.size, p=post))
    return s, w, post


def mc_tail_validate(
    prob: FiniteLearningProblem,
    alg: Algorithm,
    bound_fn,
    n: int,
    delta: float,
    trials: int,
    seed: int,
) -> ValidationReport:
    """Empirical tail check of a per-(S, W) bound at confidence level delta.

    `bound_fn(s, w, post)` returns the bound for the realized pair, where
    `post` is the posterior array P_{W|S=s} that w was drawn from; a trial is
    a violation when the exact generalization error exceeds it. Per-trial
    seeds derive from (seed, trial), so the count is order-independent.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    violations = 0
    for gen in rngs(seed, count=trials):
        s, w, post = _draw_trial(prob, alg, n, gen)
        ge = float(gen_errors(prob, s)[w])
        if ge > bound_fn(s, w, post):
            violations += 1
    return ValidationReport(trials=trials, violations=violations, target_delta=delta)


def mc_expectation_validate(
    prob: FiniteLearningProblem,
    alg: Algorithm,
    bound_value: float,
    n: int,
    trials: int,
    seed: int,
):
    """Check an in-expectation bound against the MC mean of gen(S, W).

    Returns (mc_mean, ci_halfwidth, pass); pass iff mc_mean - 3*ci <= bound.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    vals = np.empty(trials)
    for t, gen in enumerate(rngs(seed, count=trials)):
        s, w, _ = _draw_trial(prob, alg, n, gen)
        vals[t] = gen_errors(prob, s)[w]
    mean = float(vals.mean())
    ci = float(vals.std(ddof=1) / math.sqrt(trials))
    return mean, ci, bool(mean - 3 * ci <= bound_value)


# ---------------------------------------------------------------------------
# random-coding covering


@dataclass(frozen=True)
class HypothesisBook:
    """A random hypothesis book: iid length-m reproduction sequences.

    The searchable prefix for a realized block ((s_1,w_1),...,(s_m,w_m)) is
    the first floor(exp(sum_i R[s_i, w_i])) entries; rates index dataset
    types (rows) and hypotheses (columns).
    """

    entries: np.ndarray  # (book_size, m) reproduction indices
    rates: np.ndarray

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    def effective_size(self, type_seq, w_seq) -> int:
        total = float(np.asarray(self.rates)[np.asarray(type_seq), np.asarray(w_seq)].sum())
        return _searchable_prefix(total, self.entries.shape[0])


def _searchable_prefix(total_rate: float, size: int) -> int:
    """floor(exp(total_rate)) entries, clipped to [1, size]; exp is capped at e^700."""
    return max(1, min(int(math.floor(math.exp(min(total_rate, 700.0)))), size))


def _inverse_cdf(cdf: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw: the first index whose cumulative mass exceeds u, clipped to the last."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def _book_size(m: int, rates: np.ndarray) -> int:
    """floor(exp(m * R_max)) sequences; a book over BOOK_CAP raises BookCapError."""
    r_max = float(np.asarray(rates).max()) if np.asarray(rates).size else 0.0
    size = max(1, int(math.floor(math.exp(min(m * r_max, 700.0)))))
    if size > BOOK_CAP:
        raise BookCapError(f"book of {size} sequences exceeds the cap {BOOK_CAP}")
    return size


def build_hypothesis_book(q_hat, m: int, rates, seed: int) -> HypothesisBook:
    """Draw a book of iid reproduction sequences from q_hat^(x)m.

    The book holds floor(exp(m * R_max)) entries so that every realized
    effective size fits; exceeding BOOK_CAP raises BookCapError.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    r = np.asarray(rates, dtype=float)
    if np.any(r < 0):
        raise ValueError("rates must be non-negative")
    size = _book_size(m, r)
    cdf = np.cumsum(np.asarray(q_hat, dtype=float))
    gen = _rng(seed)
    entries = _inverse_cdf(cdf, gen.random(size=(size, m)))
    return HypothesisBook(entries=entries, rates=np.array(r, copy=True))


@dataclass(frozen=True)
class CoveringRow:
    m: int
    trials: int
    failures: int
    failure_prob: float
    exponent: float
    censored: bool
    low_count: bool = False  # fewer than 5 failures observed


def covering_failure_estimate(
    prob: FiniteLearningProblem,
    alg: Algorithm,
    n: int,
    rates,
    epsilon: float,
    m_grid,
    trials: int,
    seed: int,
    q_hat=None,
) -> list[CoveringRow]:
    """Estimate the excess-distortion exponent -(1/m) log P(failure) per m.

    A trial draws m iid (dataset, hypothesis) pairs from the algorithm's
    joint, then draws a fresh random book's searchable prefix: its first
    floor(exp(sum_i R[s_i, w_i])) entries, capped at the full book size
    floor(exp(m * R_max)). The trial fails when no prefix entry meets the
    squared-gap distortion
    (1/m) sum_i [gen(s_i, w_i)^2 - gen(s_i, what_i)^2] <= epsilon.
    Entries past the prefix are never searched, and the trial's Philox
    stream yields its uniforms in sequence, so drawing only the prefix gives
    the same entries, bit for bit, as drawing the whole book and slicing it.
    The rate table `rates` is indexed by dataset type (enumerate_types
    order) and hypothesis; the algorithm must be exchangeable. Zero-failure
    rows are right-censored: the exponent column carries +inf and
    failure_prob the rule-of-three upper bound 3/trials.
    """
    m_grid = list(m_grid)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if any(m < 1 for m in m_grid):
        raise ValueError("every m in m_grid must be at least 1")
    types = enumerate_types(prob.z_alphabet_size, n)
    r = np.asarray(rates, dtype=float)
    if r.shape != (len(types), prob.w_alphabet_size):
        raise ValueError(f"rates must have shape {(len(types), prob.w_alphabet_size)}")
    joint, _ = induced_joint(prob, alg, n, by_type=True)
    type_probs = np.asarray(joint.marginal_s())
    post_cdf = np.cumsum(alg.posteriors(prob, types), axis=1)
    g2 = gen_table(prob, types, by_type=True) ** 2  # (types, w); reproduction alphabet = W
    if q_hat is None:
        q_hat = np.asarray(joint.marginal_w())
    q_cdf = np.cumsum(np.asarray(q_hat, dtype=float))
    type_cdf = np.cumsum(type_probs)
    last_w = prob.w_alphabet_size - 1

    rows: list[CoveringRow] = []
    for mi, m in enumerate(m_grid):
        size = _book_size(m, r)
        failures = 0
        for gen in rngs(seed, mi, count=trials):
            t_seq = _inverse_cdf(type_cdf, gen.random(m))
            w_seq = np.minimum((post_cdf[t_seq] < gen.random(m)[:, None]).sum(axis=1), last_w)
            j_max = _searchable_prefix(float(r[t_seq, w_seq].sum()), size)
            entries = _inverse_cdf(q_cdf, gen.random((j_max, m)))
            own = float(g2[t_seq, w_seq].mean())
            repro = g2[t_seq[None, :], entries].mean(axis=1)
            if own - float(repro.max()) > epsilon:
                failures += 1
        if failures == 0:
            rows.append(CoveringRow(m, trials, 0, 3.0 / trials, math.inf, True))
        else:
            p = failures / trials
            rows.append(CoveringRow(m, trials, failures, p, -math.log(p) / m, False, failures < 5))
    return rows


def covering_default_instance() -> dict:
    """The configured covering acceptance instance.

    A 2-symbol / 2-hypothesis problem (n = 2) with a Gibbs learner. The rate
    table is the clipped likelihood-ratio choice
    R(type, w) = max(0, log(P_{W|S}(w|type) / prior(w))), which meets the
    sufficient covering condition for every epsilon >= 0 here: the loss rows
    are scaled so the squared gap is column-dominant, hence a zero-rate
    constant reproduction is always distortion-feasible (spot-verified over
    KL-ball candidates in the tests). The book law is skewed away from the
    dominant column so that finite-m failures are driven by hard dataset
    types whose searchable prefix is too small, the regime where the
    empirical exponent grows toward its limit over small m.
    """
    prob = FiniteLearningProblem(
        loss=np.array([[0.0, 0.9], [0.7, 0.1]]),
        mu=Pmf(np.array([0.45, 0.55])),
        bound=1.0,
    )
    n = 2
    alg = GibbsAlgorithm(prior=Pmf(np.array([0.5, 0.5])), beta=2.0)
    types = enumerate_types(prob.z_alphabet_size, n)
    with np.errstate(divide="ignore"):
        rates = np.maximum(0.0, np.log(alg.posteriors(prob, types) / np.asarray(alg.prior)))
    return {
        "prob": prob,
        "alg": alg,
        "n": n,
        "rates": rates,
        "q_hat": np.array([0.95, 0.05]),
        "epsilon": 0.014,
        "delta": 0.62,
    }
