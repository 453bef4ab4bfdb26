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

from .info import Pmf, _probs
from .learning import (
    Algorithm,
    FiniteLearningProblem,
    GibbsAlgorithm,
    _symbol_counts,
    _whole,
    enumerate_types,
    gen_errors,
    gen_table,
    induced_joint,
)
from .seeding import rngs, streams

__all__ = [
    "ValidationReport",
    "mc_tail_validate",
    "mc_expectation_validate",
    "covering_failure_estimate",
    "CoveringRow",
    "covering_default_instance",
    "BookCapError",
]

BOOK_CAP = 200_000
# trials evaluated together; blocks of 2048 ran no faster and raised the peak RSS
# of an 8000-trial covering run by 6.6 MB more than blocks of 256
_BLOCK = 256
# floats of per-type posteriors, cdfs and gen errors the MC validators keep (16 MB);
# a table that would grow past it is emptied, and its types are evaluated again
_TYPE_CACHE_FLOATS = 2**21
# book entries every covering trial draws up front; only a trial with a longer
# prefix and no hit among them draws the rest. 4 ran about 20% slower, and 16
# no faster with 1 MB more peak RSS
_FIRST_ENTRIES = 8


class BookCapError(ValueError):
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


def _check_mc(n: int, trials: int) -> None:
    _whole(trials, "trials", 100)
    _whole(n, "n", 1)


def _draw_trials(seed: int, prefix: tuple, trials: int, width: int):
    """Blocks of at most _BLOCK trials: row t holds the first `width` uniforms of stream rng(seed, *prefix, t).

    One buffer is refilled for every block, so a caller must be done with a
    block before it asks for the next.
    """
    gens = rngs(seed, *prefix, count=trials)
    buf = np.empty((min(_BLOCK, trials), width))
    for start in range(0, trials, _BLOCK):
        block = buf[: trials - start]
        for row in block:
            next(gens).random(out=row)
        yield block


def _mc_blocks(prob, alg, n: int, trials: int, seed: int):
    """Per block of trials: datasets s (B, n), hypotheses w (B,), gen(s, w) (B,), and the
    block's distinct posteriors (U, W) with each trial's row in them (B,).

    Trial t's draws are what `Generator.choice` makes of stream rng(seed, t):
    its first n uniforms searched in mu's cdf (`_inverse_cdf`), the next one
    in the posterior's (`_draw`), each cdf scaled by its last entry. The
    posterior and gen errors of a dataset type are computed once, from the
    first trial that draws it, and kept in one table (emptied when it would
    pass _TYPE_CACHE_FLOATS), so the algorithm must be exchangeable.
    """
    z, w_size = prob.z_alphabet_size, prob.w_alphabet_size
    mu_cdf = np.cumsum(np.asarray(prob.mu))
    mu_cdf /= mu_cdf[-1]
    index: dict[bytes, int] = {}  # dataset type -> its row of `cache`
    cache = np.empty((0, 3, w_size))  # per type: posterior, its cdf, gen errors
    room = max(_BLOCK, _TYPE_CACHE_FLOATS // (3 * w_size))
    for u in _draw_trials(seed, (), trials, n + 1):
        s = _inverse_cdf(mu_cdf, u[:, :n])
        types, first, inverse = np.unique(_symbol_counts(s, z), axis=0, return_index=True, return_inverse=True)
        keys = [counts.tobytes() for counts in types]
        if len(index) + len(keys) > room:
            index.clear()
            cache = cache[:0]
        new = [j for j, key in enumerate(keys) if key not in index]
        rows = np.empty((len(new), 3, w_size))
        for row, j in zip(rows, new):
            row[0] = alg.posterior(prob, s[first[j]])
            np.cumsum(row[0], out=row[1])
            row[1] /= row[1][-1]
            row[2] = gen_errors(prob, s[first[j]])
            index[keys[j]] = len(index)
        cache = np.concatenate([cache, rows])
        table = cache[[index[key] for key in keys]]
        inverse = inverse.reshape(-1)
        w = _draw(table[inverse, 1], u[:, n])
        yield s, w, table[inverse, 2, w], table[:, 0], inverse


def _bound_value(bound) -> float:
    """bound_fn's value as a float; ValueError unless it is one real number."""
    # a float (numpy's float64 is one) skips np.ndim, the dearest step of this check
    if isinstance(bound, float) or np.ndim(bound) == 0:
        try:
            return float(bound)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"bound_fn must return one real number, got {bound!r}")


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
    Each trial draws all its uniforms in one call; blocks of trials are then
    evaluated together, with one posterior and one gen-error vector per
    dataset type, so the algorithm must be exchangeable. `bound_fn` runs once
    per trial, on that trial's own dataset. A NaN bound cannot be judged and
    raises ValueError, as does a bound that is not one real number.
    """
    _check_mc(n, trials)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    violations = 0
    for s, w, ge, posts, inverse in _mc_blocks(prob, alg, n, trials, seed):
        for s_t, w_t, ge_t, i in zip(s, w.tolist(), ge.tolist(), inverse.tolist()):
            bound = _bound_value(bound_fn(s_t, w_t, posts[i]))
            if ge_t > bound:
                violations += 1
            elif math.isnan(bound):
                raise ValueError("bound_fn returned NaN, which no generalization error can be judged against")
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

    Trials are drawn and evaluated as in `mc_tail_validate`, so the
    algorithm must be exchangeable. Returns (mc_mean, ci_halfwidth, pass);
    pass iff mc_mean - 3*ci <= bound.
    """
    _check_mc(n, trials)
    if math.isnan(bound_value):
        raise ValueError("bound_value is NaN")
    vals = np.concatenate([ge for _, _, ge, _, _ in _mc_blocks(prob, alg, n, trials, seed)])
    mean = float(vals.mean())
    ci = float(vals.std(ddof=1) / math.sqrt(trials))
    return mean, ci, bool(mean - 3 * ci <= bound_value)


# ---------------------------------------------------------------------------
# random-coding covering


def _searchable_prefix(total_rates: np.ndarray, size: int) -> np.ndarray:
    """floor(exp(x)) entries for each total rate x, clipped to [1, size]; exp is capped at e^700.

    The exponential is libm's `math.exp`: numpy's vectorised exp may round
    differently, and one ulp can move the floor.
    """
    e = np.fromiter(map(math.exp, np.minimum(total_rates, 700.0).tolist()), float, len(total_rates))
    return np.clip(np.floor(e), 1, size).astype(int)


def _inverse_cdf(cdf: np.ndarray, u) -> np.ndarray:
    """`_draw` by binary search, for long laws: the first index whose cumulative mass exceeds u, clipped to the last."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def _draw(cdf: np.ndarray, u) -> np.ndarray:
    """`Generator.choice`'s draw: how many entries before the last of each non-decreasing cdf along `cdf`'s last axis
    are at most u (one cdf, or one per entry of u). A tie u == cdf[i] moves past cell i.

    One vectorised comparison per cell: the book and hypothesis laws have only W cells, and
    numpy's searchsorted, which branches on every key, ran 10-20 times slower on a 2-cell law.
    """
    return (cdf[..., :-1] <= u[..., None]).sum(axis=-1)


def _book_size(m: int, rates: np.ndarray) -> int:
    """floor(exp(m * R_max)) sequences; a book over BOOK_CAP raises BookCapError."""
    size = max(1, int(math.floor(math.exp(min(m * float(np.max(rates)), 700.0)))))
    if size > BOOK_CAP:
        raise BookCapError(f"book of {size} sequences exceeds the cap {BOOK_CAP}")
    return size


def _check_book(q_hat, rates, w: int, types: int):
    """The book law q_hat as a pmf over w reproductions and the rates as a finite, non-negative (types, w) table."""
    q = _probs(q_hat, 1)
    r = np.asarray(rates, dtype=float)
    if q.size != w or r.shape != (types, w):
        raise ValueError(f"need {w} q_hat entries and rates of shape {(types, w)}, got {q.size} and {r.shape}")
    if not (np.isfinite(r).all() and (r >= 0).all()):
        raise ValueError("rates must be finite and non-negative")
    return q, r


@dataclass(frozen=True)
class CoveringRow:
    m: int
    trials: int
    failures: int
    failure_prob: float
    exponent: float
    censored: bool


def covering_failure_estimate(
    prob: FiniteLearningProblem,
    alg: Algorithm,
    n: int,
    rates,
    epsilon: float,
    m_grid,
    trials: int,
    seed: int,
    q_hat,
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
    Every trial draws its 2m pair uniforms and its first K = min(8, book
    size) entries in one call, and blocks of trials are evaluated together
    with the entries past the prefix masked out. A hit among the first K
    settles a trial; a trial with a longer prefix and no such hit is long,
    and the rest of its prefix is searched later (the maximum over two
    chunks is the maximum over the whole prefix). Long trials queue across
    the blocks of one m. The queue is flushed when its remaining entries
    reach one block's up-front draw (_BLOCK * (2 + K) entries of m floats),
    and at the end of the m; a flush takes as many trials as fit, or one
    longer prefix alone, so memory stays bounded. A flush keys its trials'
    streams in one pass, skips the uniforms drawn up front and searches the
    rest of every prefix in one buffer.
    The rate table `rates` is indexed by dataset type (enumerate_types
    order) and hypothesis, the book law `q_hat` is a pmf over the
    hypotheses, and the algorithm must be exchangeable. Zero-failure
    rows are right-censored: the exponent column carries +inf and
    failure_prob the rule-of-three upper bound 3/trials, capped at 1.
    """
    rows = []
    for m, fails in _covering_flags(prob, alg, n, rates, epsilon, m_grid, trials, seed, q_hat):
        failures = int(fails.sum())
        if failures == 0:
            rows.append(CoveringRow(m, trials, 0, min(1.0, 3.0 / trials), math.inf, True))
        else:
            p = failures / trials
            rows.append(CoveringRow(m, trials, failures, p, -math.log(p) / m, False))
    return rows


def _covering_flags(prob, alg, n, rates, epsilon, m_grid, trials, seed, q_hat) -> list[tuple[int, np.ndarray]]:
    """(m, per-trial failure flags) for each m of the grid, drawn as `covering_failure_estimate` describes."""
    m_grid = [_whole(m, "every m in m_grid", 1) for m in m_grid]
    _whole(trials, "trials", 1)
    if not m_grid:
        raise ValueError("m_grid must hold at least one m")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    joint, types = induced_joint(prob, alg, n, by_type=True)
    q_hat, r = _check_book(q_hat, rates, prob.w_alphabet_size, len(types))
    type_probs = np.asarray(joint.marginal_s())
    post_cdf = np.cumsum(alg.posteriors(prob, types), axis=1)
    g2 = gen_table(prob, types, by_type=True) ** 2  # (types, w); reproduction alphabet = W
    q_cdf = np.cumsum(q_hat)
    type_cdf = np.cumsum(type_probs)

    out = []
    for mi, m in enumerate(m_grid):
        size = _book_size(m, r)
        k = min(_FIRST_ENTRIES, size)
        budget = _BLOCK * (2 + k)  # book entries per flush: as many floats as one block's up-front draw
        flags = np.empty(trials, dtype=bool)
        # long trials not yet settled: trial, dataset types, book entries left to search, own distortion
        queue = [np.empty(0, int), np.empty((0, m), int), np.empty(0, int), np.empty(0)]
        for block, u in enumerate(_draw_trials(seed, (mi,), trials, (2 + k) * m)):
            start = block * _BLOCK
            t_seq = _inverse_cdf(type_cdf, u[:, :m])
            w_seq = _draw(post_cdf[t_seq], u[:, m : 2 * m])
            j_max = _searchable_prefix(r[t_seq, w_seq].sum(axis=1), size)
            own = g2[t_seq, w_seq].mean(axis=1)
            entries = _draw(q_cdf, u[:, 2 * m :].reshape(len(u), k, m))
            repro = g2[t_seq[:, None, :], entries].mean(axis=2)
            repro[np.arange(k) >= j_max[:, None]] = -np.inf
            fail = own - repro.max(axis=1) > epsilon
            flags[start : start + len(u)] = fail
            long = np.flatnonzero(fail & (j_max > k))
            queued = (start + long, t_seq[long], j_max[long] - k, own[long])
            queue = [np.concatenate(pair) for pair in zip(queue, queued)]
            last = start + len(u) == trials
            while queue[0].size and (last or queue[2].sum() >= budget):
                # the longest run of queued trials within the budget, or one larger trial alone
                count = max(1, int(np.searchsorted(np.cumsum(queue[2]), budget, side="right")))
                ids, seqs, left, own_q = (a[:count] for a in queue)
                rest = _search_rest(seed, mi, ids, seqs, left, (2 + k) * m, q_cdf, g2)
                # own - best > epsilon already holds, and rounding is monotone, so
                # own - max(best, rest) > epsilon exactly when own - rest > epsilon
                flags[ids] = own_q - rest > epsilon
                queue = [a[count:] for a in queue]
        out.append((m, flags))
    return out


def _search_rest(seed, mi, ids, seqs, left, skip, q_cdf, g2) -> np.ndarray:
    """Per long trial (a row of `seqs`), the best reproduction among the `left` entries after its first K.

    The streams rng(seed, mi, t) of all the trials are keyed in one pass; each
    skips the `skip` uniforms drawn up front and fills its rows of one buffer,
    which is searched with one gather and one segmented maximum.
    """
    ends = np.cumsum(left)
    starts = ends - left
    buf = np.empty((int(ends[-1]), seqs.shape[1]))
    lead = np.empty(skip)
    for gen, lo, hi in zip(streams(seed, mi, ids.astype(np.uint32)), starts.tolist(), ends.tolist()):
        gen.random(out=lead)
        gen.random(out=buf[lo:hi])
    entries = _draw(q_cdf, buf)
    return np.maximum.reduceat(g2[np.repeat(seqs, left, axis=0), entries].mean(axis=1), starts)


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
