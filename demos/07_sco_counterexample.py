"""
The memorizing-GD counter-example and its 1/n bound
===================================================

Projected gradient descent on this high-dimensional convex loss memorizes
`bad' coordinates (all-zero in the training sample), which defeats plain
mutual-information analyses. A two-level quantizer of the GD output keeps
the information rate tiny, and the assembled bound on E[gen] decays like
1/n. The scaling table sets it beside the exact E[gen] and the exact
probability of the bad-count event.
"""

import numpy as np

from genbounds import ScoInstance, assemble_bound, quantize_w, run_gd, scaling_study
from genbounds.counterexample import bad_coord_stats, exact_mean_gen, quantizer_levels
from genbounds.seeding import rng

inst = ScoInstance(4)
print(f"n=4 instance: T={inst.T} GD steps, d={inst.d} coordinates, eta={inst.eta:.4e}")

# Iterative GD vs the per-coordinate closed form, on one event-satisfying draw.
s = (rng(123, 0).random((inst.n, inst.d)) < 0.5).astype(np.uint8)
w_iter, ok = run_gd(inst, s, "iterative")
w_closed, _ = run_gd(inst, s, "closed_form")
print(f"bad-count event holds: {ok}; max |iterative - closed form| = {np.max(np.abs(w_iter - w_closed)):.2e}")

stats = bad_coord_stats(inst)
print(
    f"P(T/2 <= #bad <= T) = {stats['probability']:.6f} "
    f"(floor {stats['floor']:.6f}); E[#bad] = {stats['mean']:.1f} = (3/4)T = {0.75 * inst.T:.1f}"
)

v0, v1 = quantizer_levels(inst)
w_hat = quantize_w(inst, s, r=1 - 1 / 16, seed=9)
print(f"quantizer levels v0={v0:.4e}, v1={v1:.4e}; output support {sorted(set(np.round(w_hat, 6)))}")

rep = assemble_bound(inst, r=1 - 1 / 16, mode="expectation")
print(f"\nassembled in-expectation bound at n=4: {rep.bound_value:.4f}")
for name, val in rep.terms.items():
    print(f"   {name:>14} = {val:.5f}")
print(f"   exact E[gen]   = {exact_mean_gen(inst):.5f}")

print("\nscaling over n = 4..10 (exact, no sampling):")
res = scaling_study(range(4, 11))
print("  n | exact mean gen | P(event) | expectation bound | tail bound")
for row in res.rows:
    print(
        f"{row.n:>3} | {row.exact_mean_gen:14.5f} | {row.event_probability:8.6f} "
        f"| {row.bound_expectation:17.5f} | {row.bound_tail:10.4f}"
    )
print(f"log-log slope of the bound    : {res.slope_bound:.3f} (1/n-like)")
print(f"log-log slope of exact E[gen] : {res.slope_exact:.3f}")
