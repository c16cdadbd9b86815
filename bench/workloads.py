"""The benchmark's three workloads: ``train-wide``, ``train-narrow``, ``predict``.

Each workload has five config slots (``cp``, ``tucker``, ``tt``, ``ttm``,
``embedding``).  All inputs come from the workload seed; the library sees
only the generated arrays.  README.md says why each workload exists.

A train op is one training step and a predict op is one request.  Every op
belongs to a call whose outputs are checked; an op fails when that call
raises, returns a non-zero exit code or fails a check.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import spans
from tensorard import bayes, cli, datasets, factorized, network, training

SLOTS = ("cp", "tucker", "tt", "ttm", "embedding")

NUM_TOKENS = 10_000
TOKEN_CLASSES = 4
CHECK_ROWS = 4          # input rows (or token ids) in one request
PREDICT_SAMPLES = 10    # posterior draws per predict request
PRUNE_THRESHOLD = 1e-2


@dataclass(frozen=True)
class Job:
    """One net trained on one dataset.

    ``teacher`` is the ``gen_synthetic`` format, row dims, col dims, true
    ranks and (in, out) features; ``None`` means token ids labelled by a TTM
    embedding teacher.  The learning rate is ``lr_scale / num_samples``.
    """

    slot: str
    layers: list
    teacher: tuple | None
    num_samples: int
    lr_scale: float
    rank_step: float
    batch_size: int
    epochs: int


def _wide(fmt, rank):
    return [
        {"type": "tensorized_linear", "format": fmt, "row_dims": [28, 28],
         "col_dims": [16, 32], "max_rank": rank, "activation": "relu"},
        {"type": "tensorized_linear", "format": fmt, "row_dims": [32, 16],
         "col_dims": [10], "max_rank": rank, "activation": "identity"},
    ]


def _narrow(fmt, row_dims, col_dims, max_rank, in_out=None):
    layer = {"type": "tensorized_linear", "format": fmt, "row_dims": row_dims,
             "col_dims": col_dims, "max_rank": max_rank, "activation": "identity"}
    if in_out:
        layer["in_features"], layer["out_features"] = in_out
    return [layer]


# The TTM embedding config: a 10^4 x 32 table at max rank 6 with a plain head,
# trained at its acceptance learning rate and batch size.
EMBEDDING = Job(
    "embedding",
    [{"type": "embedding", "format": "ttm", "row_dims": [10, 10, 10, 10],
      "col_dims": [2, 2, 2, 4], "max_rank": 6},
     {"type": "plain_linear", "in_features": 32, "out_features": TOKEN_CLASSES,
      "activation": "identity"}],
    None, 4096, 1.0, 0.1, 256, 8,
)


WIDE_TEACHER = ("cp", [28, 28], [10], 5, None)
WIDE_TTM = [
    {"type": "tensorized_linear", "format": "ttm", "row_dims": [4, 7, 4, 7],
     "col_dims": [4, 4, 8, 4], "max_rank": 20, "activation": "relu"},
    {"type": "tensorized_linear", "format": "ttm", "row_dims": [32, 16],
     "col_dims": [2, 5], "max_rank": 20, "activation": "identity"},
]

# 784->512->10 with both layers tensorized: 13 batches of 128 for 3 epochs,
# 39 steps, 36 timed after dropping the intervals that hold epoch-end work.
# Short trains let the configs take turns many times in a run, so a burst of
# load elsewhere on the machine falls on all of them alike.  The embedding
# slot runs the TTM embedding config for 3 epochs (45 timed steps).
TRAIN_WIDE = (
    Job("cp", _wide("cp", 50), WIDE_TEACHER, 1664, 0.1, 0.05, 128, 3),
    Job("tucker", _wide("tucker", 12), WIDE_TEACHER, 1664, 0.1, 0.05, 128, 3),
    Job("tt", _wide("tt", 20), WIDE_TEACHER, 1664, 0.1, 0.05, 128, 3),
    Job("ttm", WIDE_TTM, WIDE_TEACHER, 1664, 0.1, 0.05, 128, 3),
    replace(EMBEDDING, epochs=3),
)

# The criterion-1 synthetic configs and the TTM embedding config, at their
# acceptance learning rates and batch sizes; 128 steps each.
TRAIN_NARROW = (
    Job("cp", _narrow("cp", [28, 28], [10], 10),
        ("cp", [28, 28], [10], 5, None), 2048, 0.5, 0.1, 128, 8),
    Job("tucker", _narrow("tucker", [28, 28], [10], 10),
        ("tucker", [28, 28], [10], [5, 5, 5], None), 2048, 0.35, 0.1, 256, 16),
    Job("tt", _narrow("tt", [28, 28], [10], 10),
        ("tt", [28, 28], [10], [5, 5], None), 2048, 0.25, 0.1, 128, 8),
    Job("ttm", _narrow("ttm", [4, 7, 4], [7, 2, 5], 10, (784, 10)),
        ("ttm", [4, 7, 4], [7, 2, 5], [5, 5], (784, 10)), 2048, 0.5, 0.1, 128, 8),
    EMBEDDING,
)

# Predict serves the four wide nets and the narrow embedding net, each
# trained for one short epoch during set-up.
PREDICT_NETS = tuple(
    replace(job, num_samples=512, epochs=1)
    for job in (*TRAIN_WIDE[:4], EMBEDDING)
)


@dataclass
class Tally:
    """What one pass over a workload did and how long its ops took."""

    op_s: dict = field(default_factory=lambda: {s: [] for s in SLOTS})
    items: int = 0          # training samples, or requests served
    busy_s: float = 0.0     # wall seconds inside train() or the request call
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)
    params_before: int = 0
    params_after: int = 0

    def fail(self, ops, why):
        self.attempted += ops
        self.failed += ops
        print(f"op failure: {why}", flush=True)


def _seeds(seed, slot_index):
    """Data, init and training seeds for one config slot."""
    return [int(s) for s in np.random.SeedSequence([seed, slot_index]).generate_state(3)]


def _token_data(num_samples, rng):
    teacher = factorized.init_layer(
        "ttm", [10, 10, 10, 10], [2, 2, 2, 4], [2, 2, 2], rng, target_var=1.0
    )
    rows = factorized.reconstruct("ttm", teacher.point_means()).reshape(NUM_TOKENS, 32)
    head = rng.standard_normal((32, TOKEN_CLASSES))
    tokens = rng.integers(0, NUM_TOKENS, size=num_samples)
    labels = np.argmax(rows[tokens] @ head, axis=1)
    return datasets.LabeledDataset(tokens, labels, TOKEN_CLASSES)


@dataclass
class Prepared:
    """A job's generated inputs, its untrained net and its request inputs."""

    job: Job
    data: datasets.LabeledDataset
    net: network.Network
    train_seed: int
    request: list  # CLI arguments of a request, without --checkpoint


def prepare(job, seed, slot_index, work):
    data_seed, init_seed, train_seed = _seeds(seed, slot_index)
    if job.teacher is None:
        data = _token_data(job.num_samples, np.random.default_rng(data_seed))
    else:
        fmt, row_dims, col_dims, true_ranks, in_out = job.teacher
        data, _ = datasets.gen_synthetic(
            fmt, row_dims, col_dims, true_ranks, num_samples=job.num_samples,
            seed=data_seed, in_features=in_out and in_out[0],
            out_features=in_out and in_out[1],
        )
    net = network.build_network(job.layers, data.classes, np.random.default_rng(init_seed))
    job_dir = Path(work) / job.slot
    job_dir.mkdir(parents=True, exist_ok=True)
    if job.teacher is None:
        # `tensorard predict` rejects every token-id input (a 1-d index array
        # is wrapped as a single 2-d row), so embedding nets are served by
        # `tensorard eval` on a few token ids instead.
        prefix = job_dir / "request"
        datasets.save_dataset(data.subset(slice(0, CHECK_ROWS)), prefix)
        request = ["eval", "--data", str(prefix)]
    else:
        rows = job_dir / "request.npy"
        np.save(rows, data.inputs[:CHECK_ROWS])
        request = ["predict", "--input", str(rows), "--samples", str(PREDICT_SAMPLES),
                   "--out", str(job_dir / "prediction.json")]
    return Prepared(job, data, net, train_seed, request)


def _train_config(prep):
    job = prep.job
    return training.TrainConfig(
        learning_rate=job.lr_scale / job.num_samples, rank_step=job.rank_step,
        prune_threshold=PRUNE_THRESHOLD, epochs=job.epochs, batch_size=job.batch_size,
        hyper_prior=bayes.LogUniform(), seed=prep.train_seed,
    )


def _training_problems(net, report):
    columns = (report.loss, report.nll, report.kl)
    if not all(np.isfinite(v) for col in columns for v in col):
        return "non-finite loss, NLL or KL"
    if len(report.nll) > 1 and not report.nll[-1] < report.nll[0]:
        return f"NLL did not fall: {report.nll[0]!r} -> {report.nll[-1]!r}"
    # Holds by construction today: the rank-variance vectors that inferred
    # ranks count are made at max-rank length and pruning only shrinks them.
    for i, fl in net.factorized_layers():
        got = np.atleast_1d(report.final_ranks[f"layer{i}"])
        if fl.kind in ("tt", "ttm"):
            got = got[1:-1]
        if np.any(got > np.atleast_1d(fl.max_ranks)):
            return f"layer {i} ranks {report.final_ranks[f'layer{i}']} exceed {fl.max_ranks}"
    return None


def _digest(report, checkpoint_path):
    """Hash of the per-epoch columns and every array of the final checkpoint."""
    h = hashlib.sha256()
    for col in (report.loss, report.nll, report.kl, report.ranks, report.final_ranks):
        h.update(repr(col).encode())
    with np.load(checkpoint_path) as ck:
        for key in sorted(ck.files):
            arr = ck[key]
            h.update(f"{key}{arr.dtype}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def train_job(prep, out_dir, tally, stamps=None):
    """Train one net as the CLI does, check it, and record its ops.

    ``stamps`` is the list the step probe appends to on each
    ``Network.sample`` call; ``None`` when no probe is installed.  Returns
    the final checkpoint and the accuracy an eval request on it must print,
    or None when the job failed.
    """
    job, cfg = prep.job, _train_config(prep)
    per_epoch = math.ceil(job.num_samples / job.batch_size)
    steps = job.epochs * per_epoch
    net = copy.deepcopy(prep.net)
    if stamps is not None:
        stamps.clear()
    start = time.perf_counter()
    try:
        net, report = training.train(net, prep.data, cfg, out_dir=out_dir)
    except Exception:
        tally.fail(steps, f"{job.slot}: train() raised\n{traceback.format_exc()}")
        return None
    wall = time.perf_counter() - start
    taken = list(stamps) if stamps is not None else None
    final = Path(out_dir) / "checkpoint_final.npz"
    expect = None
    if prep.request[0] == "eval":
        expect = f"{training.evaluate(net, prep.data.subset(slice(0, CHECK_ROWS))):.4f}"
    problem = _training_problems(net, report)
    text = ""
    if problem is None:
        problem, text, _ = request(prep, final, 0, expect)
    if problem is None and taken is not None and len(taken) != steps:
        problem = f"{len(taken)} Network.sample calls for {steps} steps"
    if problem is not None:
        tally.fail(steps, f"{job.slot}: {problem}")
        return None
    if taken is not None:
        # Interval i runs from step i to step i+1; the last step of each
        # epoch is followed by evaluation and a checkpoint write, so drop it.
        gaps = np.diff(taken)
        keep = (np.arange(gaps.size) + 1) % per_epoch != 0
        tally.op_s[job.slot].extend(gaps[keep].tolist())
    tally.items += job.epochs * job.num_samples
    tally.busy_s += wall
    tally.attempted += steps
    tally.params_before += report.params_before_prune
    tally.params_after += report.params_after_prune
    tally.digests += [_digest(report, final), _text_digest(text)]
    return final, expect


def _prediction_problem(text, classes):
    out = json.loads(text)
    mean, std = np.asarray(out["mean"], dtype=float), np.asarray(out["std"], dtype=float)
    if mean.shape != (CHECK_ROWS, classes) or std.shape != mean.shape:
        return f"mean/std shapes {mean.shape}/{std.shape}"
    if not np.all(np.abs(mean.sum(axis=1) - 1.0) <= 1e-9):
        return "a mean row does not sum to 1 within 1e-9"
    if not (np.all(np.isfinite(std)) and np.all(std >= 0.0)):
        return "a std is negative or not finite"
    return None


def request(prep, checkpoint_path, seed, expect_acc=None):
    """One `tensorard` CLI request against a checkpoint.

    A predict request must return a proper distribution per row; an eval
    request must print ``expect_acc``.  Returns the problem found (None when
    there is none), the request's output text and its wall seconds.
    """
    command, *rest = prep.request
    argv = [command, "--checkpoint", str(checkpoint_path), *rest]
    if command == "predict":
        argv += ["--seed", str(seed)]
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except Exception:
        code = f"none; it raised\n{traceback.format_exc()}"
    elapsed = time.perf_counter() - start
    problem = None if code == 0 else f"exit code {code}"
    text = captured.getvalue()
    if problem is None and command == "predict":
        text = Path(argv[argv.index("--out") + 1]).read_text()
        problem = _prediction_problem(text, prep.data.classes)
    elif problem is None:
        line = text.splitlines()[0] if text else ""
        acc = line.rpartition(": ")[2]
        if not line.startswith("posterior-mean accuracy") or acc != expect_acc:
            problem = f"eval printed {line!r}, expected accuracy {expect_acc}"
    return problem, text, elapsed


def _text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TrainWorkload:
    """One round trains every config once, as `tensorard train` would."""

    def __init__(self, jobs, min_rounds, trace_rounds):
        self.jobs = jobs
        self.min_rounds = min_rounds
        self.trace_rounds = trace_rounds

    def setup(self, work, seed, tally):
        return [prepare(job, seed, i, work) for i, job in enumerate(self.jobs)]

    def run_round(self, state, work, index, tally, probe):
        if not probe:
            for prep in state:
                train_job(prep, Path(work) / prep.job.slot, tally)
            return
        stamps = []
        with spans.patched(spans.step_probe(stamps), names=("network.sample",)):
            for prep in state:
                train_job(prep, Path(work) / prep.job.slot, tally, stamps)


class PredictWorkload:
    """One round sends one request to each checkpoint, round-robin."""

    min_rounds = trace_rounds = 100  # 100 ops per config, ten beyond p90

    def setup(self, work, seed, tally):
        # Set-up training steps are not ops of this workload; only their
        # outputs and parameter counts are kept.
        made, state = Tally(), []
        for i, job in enumerate(PREDICT_NETS):
            prep = prepare(job, seed, i, work)
            trained = train_job(prep, Path(work) / job.slot, made)
            if trained is None:
                raise RuntimeError(f"set-up training of {job.slot} failed")
            state.append((prep, *trained))
        tally.digests += made.digests
        tally.params_before += made.params_before
        tally.params_after += made.params_after
        return state

    def run_round(self, state, work, index, tally, probe):
        for j, (prep, final, expect) in enumerate(state):
            problem, text, elapsed = request(prep, final, index * len(state) + j, expect)
            if problem is not None:
                tally.fail(1, f"{prep.job.slot} request: {problem}")
                continue
            tally.attempted += 1
            tally.items += 1
            tally.busy_s += elapsed
            tally.op_s[prep.job.slot].append(elapsed)
            tally.digests.append(_text_digest(text))


WORKLOADS = {
    # Wide: three rounds give 108 timed steps per config.
    "train-wide": TrainWorkload(TRAIN_WIDE, min_rounds=3, trace_rounds=3),
    "train-narrow": TrainWorkload(TRAIN_NARROW, min_rounds=1, trace_rounds=5),
    "predict": PredictWorkload(),
}
