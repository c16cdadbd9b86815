"""Tour of the tensor plumbing: folding weight matrices and the four
factorized formats, with parameter counts for a realistic two-layer MLP.
"""

import numpy as np

import tensorard as ta

rng = np.random.default_rng(0)

# A weight matrix is folded into a higher-order tensor by reinterpreting its
# row-major buffer.  Folding is exact and free.
w = rng.standard_normal((6, 4))
t = ta.fold_matrix(w, [2, 3, 4])
print("folded", w.shape, "->", t.shape)
assert np.array_equal(t.reshape(6, 4), w)

# Listing the row dims before the column dims splits rows and columns
# separately (mixed-radix digits), which is what the tensor-train-matrix
# format consumes.
t2 = ta.fold_matrix(w, [2, 3] + [2, 2])
print("paired fold ->", t2.shape, " entry check:", t2[1, 2, 0, 1] == w[5, 1])

# Each format reconstructs a full tensor from small factors.
cp = ta.init_layer("cp", [2, 3], [4], ranks=2, rng=rng)
tucker = ta.init_layer("tucker", [2, 3], [4], ranks=[2, 2, 2], rng=rng)
tt = ta.init_layer("tt", [2, 3], [4], ranks=[2, 2], rng=rng)
ttm = ta.init_layer("ttm", [2, 3], [2, 2], ranks=[2], rng=rng)
for layer in (cp, tucker, tt, ttm):
    full = ta.reconstruct(layer.kind, layer.point_means())
    print(f"{layer.kind:6s} factors -> tensor {full.shape}, "
          f"{ta.param_count(layer)} parameters")

# Parameter budget of the 784x512 + 512x10 MLP in each format, at the ranks
# used throughout the demos (CP 50, others 20), biases included.
print("\nMLP compression (dense = 407,050 parameters):")
specs = {
    "cp": (50, 50),
    "tucker": (20, 20),
    "tt": (20, 20),
    "ttm": (20, 20),
}
for kind, (r1, r2) in specs.items():
    if kind == "ttm":
        l1 = ta.init_layer(kind, [4, 7, 4, 7], [4, 4, 8, 4], r1, rng)
        l2 = ta.init_layer(kind, [32, 16], [2, 5], r2, rng)
    else:
        l1 = ta.init_layer(kind, [28, 28], [16, 32], r1, rng)
        l2 = ta.init_layer(kind, [32, 16], [10], r2, rng)
    total = ta.param_count(l1) + ta.param_count(l2) + 512 + 10
    print(f"  {kind:6s}: {total:7d}  ({407050 / total:5.1f}x smaller)")
