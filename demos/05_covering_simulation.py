"""
Variable-size covering with random hypothesis books
===================================================

A hypothesis book is a list of candidate compressed hypothesis sequences;
each realized block of m (dataset, hypothesis) pairs may only search the
first exp(sum_i R[s_i, w_i]) entries. A covering failure means no searchable
entry meets the squared-gap distortion budget. The claim under test: with
rates satisfying the sufficient covering condition, the failure probability
decays like delta^m, i.e. the empirical exponent -(1/m) log P(fail) climbs
to at least log(1/delta).
"""

import math

from genbounds import covering_failure_estimate
from genbounds.validation import covering_default_instance

inst = covering_default_instance()
print("configured instance: 2 symbols, 2 hypotheses, n = 2 (Gibbs learner)")
print("rate table (rows: dataset types):")
for row in inst["rates"]:
    print("   ", [f"{x:.4f}" for x in row])

# a book holds floor(exp(m * R_max)) sequences, so that every searchable prefix fits
print(f"\na random book at m=8 holds {math.floor(math.exp(8 * inst['rates'].max()))} sequences")

rows = covering_failure_estimate(
    inst["prob"], inst["alg"], inst["n"], inst["rates"], inst["epsilon"],
    m_grid=[4, 8, 12], trials=8000, seed=7, q_hat=inst["q_hat"],
)
target = math.log(1 / inst["delta"])
print(f"\n m | failures | exponent  (target for large m: >= {target:.3f} - 0.2)")
for r in rows:
    tag = " (censored)" if r.censored else ""
    print(f"{r.m:>3} | {r.failures:>8} | {r.exponent:.4f}{tag}")
