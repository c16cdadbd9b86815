"""Compressing an embedding table with the tensor-train-matrix format.

The table never needs materializing: a token's row comes from contracting
the cores against the token's mixed-radix digits, and the backward pass
touches only the rows a batch actually used.  Training shrinks the bond
ranks that the task does not need.  Takes about 16 s on a 2-vCPU Xeon with
one BLAS thread.
"""

import numpy as np

import tensorard as ta
from tensorard.network import embedding_lookup

rng = np.random.default_rng(0)

# A 10,000-token, 32-dim table in TTM format.
num_tokens, embed_dim, classes = 10_000, 32, 4
row_dims, col_dims = [10, 10, 10, 10], [2, 2, 2, 4]
table = ta.init_layer("ttm", row_dims, col_dims, ranks=[6, 6, 6], rng=rng,
                      target_var=1.0 / embed_dim)
print(f"table: {num_tokens * embed_dim} dense entries -> "
      f"{ta.param_count(table)} factor entries")

# Row lookup by core contraction matches materialize-then-select.
tokens = np.array([3, 1411, 5920, 6530, 1411])
rows = embedding_lookup(table, table.point_means(), tokens)
full = ta.reconstruct("ttm", table.point_means()).reshape(num_tokens, embed_dim)
print("lookup vs materialized, max abs diff:",
      float(np.max(np.abs(rows - full[tokens]))))

# End-to-end: token classification through the table plus a dense head.
# Labels come from a low-bond-rank teacher, so some bonds are unnecessary.
teacher_table = ta.init_layer("ttm", row_dims, col_dims, ranks=[2, 2, 2],
                              rng=rng, target_var=1.0)
teacher_rows = ta.reconstruct("ttm", teacher_table.point_means())
teacher_rows = teacher_rows.reshape(num_tokens, embed_dim)
head = rng.standard_normal((embed_dim, classes))
N = 4096
tokens = rng.integers(0, num_tokens, size=N)
labels = np.argmax(teacher_rows[tokens] @ head, axis=1)
data = ta.LabeledDataset(tokens, labels, classes)

net = ta.build_network(
    [
        {"type": "embedding", "format": "ttm", "row_dims": row_dims,
         "col_dims": col_dims, "max_rank": 6},
        {"type": "plain_linear", "in_features": embed_dim,
         "out_features": classes, "activation": "identity"},
    ],
    classes=classes, rng=np.random.default_rng(1),
)
config = ta.TrainConfig(learning_rate=1.0 / N, rank_step=0.1, prune_threshold=1e-2,
                        epochs=400, batch_size=256, seed=0)
net, report = ta.train(net, data, config)
print(f"accuracy: {report.train_acc[-1]:.3f}")
print(f"embedding bond ranks: {report.final_ranks['layer0']} "
      f"(teacher used (1, 2, 2, 2, 1), started at (1, 6, 6, 6, 1))")
print(f"parameters: {report.params_before_prune} -> {report.params_after_prune} "
      f"(dense model: {net.dense_param_count()})")
