"""Mutation check: does the fast test suite catch each of a fixed list of faults?

    python tools/mutants.py          # every mutant
    python tools/mutants.py 3 10     # mutants 3 and 10 only
    python tools/mutants.py --list   # print the list and exit

Each mutant is a (file, old text, new text, why) edit of the tree this script
lives in.  For each one the script copies the tree, less ``.git`` and caches,
to a temporary directory, replaces the old text there (it must occur exactly
once in its file), runs ``python -m pytest -m "not slow" -x -q`` in the copy,
less ``tests/test_mutants.py`` (which every edit fails by design), and prints
``killed`` with the first failing test, or ``survived``.  A mutant
with an ``equivalent`` reason changes nothing any test can see, and is
expected to survive.  The exit code is 1 when some verdict is not the
expected one (a mutant without such a reason survives, or one with it is
killed), else 0.

The script runs outside the tier-1 suite: each mutant runs the fast suite
(up to about a minute on two cores).  ``tests/test_mutants.py`` checks in
tier-1 that every old text still occurs exactly once in its file, so the
list cannot go stale unnoticed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    path: str
    old: str
    new: str
    why: str
    equivalent: str = ""  # why no test can see it, for a mutant expected to survive


MUTANTS = (
    Mutant("src/tensorard/training.py",
           "    np.maximum(stds, SIGMA_FLOOR, out=stds)\n", "",
           "no floor on the stds after a step"),
    Mutant("src/tensorard/training.py",
           "cap = 0.5 * np.abs(param)", "cap = 0.6 * np.abs(param)",
           "trust-region cap on the KL step at 0.6, not 0.5"),
    Mutant("src/tensorard/network.py",
           "return madds < 3 * self.in_features * self.out_features",
           "return madds < 2 * self.in_features * self.out_features",
           "the split rule at 2·I·J, not 3·I·J"),
    Mutant("src/tensorard/bayes.py",
           "if np.fmin.reduce(std, axis=None, initial=np.inf) <= 0:",
           "if np.fmin.reduce(std, axis=None, initial=np.inf) < 0:",
           "a zero std passes the std check"),
    Mutant("src/tensorard/bayes.py",
           "        np.maximum(v, RANK_VAR_FLOOR, out=v)\n", "",
           "no floor on the rank variances after an update"),
    Mutant("src/tensorard/factorized.py",
           "masks = [v >= threshold for v in layer.rank_variances]",
           "masks = [v > threshold for v in layer.rank_variances]",
           "prune drops a rank variance equal to the threshold"),
    Mutant("src/tensorard/factorized.py",
           "np.count_nonzero(v >= threshold)", "np.count_nonzero(v > threshold)",
           "the surviving count drops a rank variance equal to the threshold"),
    Mutant("src/tensorard/training.py",
           "std = np.sqrt(np.maximum(var / (num_samples - 1), 0.0))",
           "std = np.sqrt(np.maximum(var / num_samples, 0.0))",
           "the predictive std divides by n, not n - 1"),
    Mutant("src/tensorard/network.py",
           "    for slices in layers:\n", "    for slices in list(layers)[::-1]:\n",
           "the KL sums its layers in reverse order"),
    Mutant("src/tensorard/factorized.py",
           "a = a.reshape(batch + (i, j, n, m, r1)).swapaxes(-4, -3)",
           "a = a.reshape(batch + (i, j, n, m, r1)).swapaxes(-4, -2)",
           "_lefts swaps the partial's J with the core's J, not the core's I"),
    Mutant("src/tensorard/factorized.py",
           "b = b.reshape(r0, n, m, i, j).swapaxes(2, 3)", "b = b.reshape(r0, n, m, i, j)",
           "_rights leaves the core's J before the partial's I"),
    Mutant("src/tensorard/factorized.py",
           "if j > 1 and n > 1:", "if j > 2 and n > 1:",
           "_lefts skips the axis swap when the partial's J is 2"),
    Mutant("src/tensorard/factorized.py",
           "if m > 1 and i > 1:", "if m > 1 and i > 2:",
           "_rights skips the axis swap when the partial's I is 2"),
    Mutant("src/tensorard/factorized.py",
           "t = dense.mode_n_product(t, mats[k].T if project else mats[k], k + 1)",
           "t = dense.mode_n_product(t, mats[k].T if project else mats[k], k)",
           "_batched_chain forgets the batch axis: mode k, not k + 1"),
    Mutant("src/tensorard/factorized.py",
           "left = cores[0][..., 0, :, :, :]", "left = cores[0][..., -1, :, :, :]",
           "_lefts starts from the last index of the first core's r_0 axis",
           equivalent="r_0 is 1, so index -1 is index 0"),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file of this tree."""
    return (ROOT / mutant.path).read_text().count(mutant.old)


def _ignore(_dir, names):
    return [n for n in names if n in (".git", "__pycache__", ".pytest_cache", ".bench_work")]


def run(mutant: Mutant) -> tuple:
    """(killed, first failing test or '', seconds) for one mutant."""
    if occurrences(mutant) != 1:
        raise ValueError(f"{mutant.path}: old text must occur exactly once: {mutant.old!r}")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_ignore)
        target = tree / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q",
             "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    failed = [line.split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode != 0, failed[0] if failed else "", seconds


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args == ["--list"]:
        for k, m in enumerate(MUTANTS, start=1):
            print(f"{k:2d}  {m.path}  {m.why}" + (f"  [equivalent: {m.equivalent}]"
                                                  if m.equivalent else ""))
        return 0
    chosen = [int(a) for a in args] or range(1, len(MUTANTS) + 1)
    unexpected = 0
    for k in chosen:
        m = MUTANTS[k - 1]
        killed, first, seconds = run(m)
        verdict = "killed" if killed else "survived"
        note = first if killed else (f"equivalent: {m.equivalent}" if m.equivalent else "")
        print(f"{k:2d} {verdict:8s} {seconds:6.1f} s  {m.path}: {m.why}  {note}", flush=True)
        unexpected += killed == bool(m.equivalent)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
