"""How the rank variances behave: closed-form optima under both hyper-priors,
the incremental update, and pruning once variances collapse.
"""

import numpy as np

import tensorard as ta
from tensorard.bayes import update_rank_variances
from tensorard.factorized import rank_moments

# The optimum for one rank variance depends only on the total squared mass M
# of the entries it controls and their count D.
print("log-uniform optimum M/(D+1):")
for m, d in [(2.0, 1), (0.37, 12), (6.6, 66)]:
    print(f"  M={m:<5} D={d:<3} -> {ta.optimal_rank_var_log_uniform(m, d):.5f}")

print("half-Cauchy optimum (shrinks harder as the scale drops):")
for scale in (1.0, 0.3, 0.05):
    val = ta.optimal_rank_var_half_cauchy(1.0, 10, scale)
    print(f"  scale={scale:<4} -> {val:.5f}")

# On a layer, each variance controls one column (CP) or one slice (TT/TTM).
rng = np.random.default_rng(0)
layer = ta.init_layer("cp", [6], [4], ranks=3, rng=rng, target_var=1.0)
# make column 1 carry almost no mass
for f in layer.factors:
    f.mean[:, 1] *= 1e-4
    f.std[:, 1] = 1e-5

print("\nbefore updates:", layer.rank_variances[0].round(4))
for _ in range(200):
    update_rank_variances(layer, ta.LogUniform(), step=0.1)
print("after updates: ", layer.rank_variances[0])

moments, count = rank_moments(layer)[0]
print("entry mass per column:", moments.round(6), "entries per column:", count)

pruned = ta.prune(layer, 1e-4)
print("pruned rank:", pruned.ranks, " params:",
      ta.param_count(layer), "->", ta.param_count(pruned))
full_before = ta.reconstruct("cp", layer.point_means())
full_after = ta.reconstruct("cp", pruned.point_means())
print("max reconstruction change from pruning:",
      float(np.max(np.abs(full_before - full_after))))
