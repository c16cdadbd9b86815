"""The golden runs against their committed digests.

``tools/golden_runs.py`` trains 23 short runs through ``tensorard train``
(every format as a linear and as an embedding net, under both hyper-priors;
see its docstring) and prints SHA-256 digests of each run's metrics, ranks,
report and final checkpoint, and of ``tensorard predict``'s output from that
checkpoint on four fixed inputs.  This test runs it in-process and compares its
output with ``tools/golden_digests.txt`` line by line, so a change that moves
any number of any run, by one ulp or more, fails here.  A change that moves
numbers on purpose regenerates the file, after comparing the two trees' runs
with ``golden_runs.py --compare``.
"""

import importlib.util
import itertools
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_golden_runs():
    spec = importlib.util.spec_from_file_location("golden_runs", TOOLS / "golden_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_runs_match_the_committed_digests(tmp_path, capsys):
    golden = _load_golden_runs()
    header, *want = (TOOLS / "golden_digests.txt").read_text().splitlines()
    assert golden.header() == header, (
        f"tools/golden_digests.txt was recorded under {header[2:]!r}, this run has "
        f"{golden.header()[2:]!r}; the digests hold for one numpy and BLAS only, so "
        "regenerate the file on the parent tree in this environment first")
    capsys.readouterr()
    assert golden.main([str(tmp_path)]) == 0
    _, *got = capsys.readouterr().out.splitlines()
    differ = [(w, g) for w, g in itertools.zip_longest(want, got, fillvalue="")
              if w != g]
    # A line is "<run> <item> ... <digest>"; name each differing one by all
    # but its digest.
    names = sorted({line.rsplit(" ", 1)[0] for pair in differ for line in pair if line})
    assert not differ, (
        f"{len(differ)} of {len(want)} digest lines differ, in "
        f"{', '.join(sorted({n.split()[0] for n in names}))}: {'; '.join(names[:12])}. "
        "Run tools/golden_runs.py on the parent and on this tree, then "
        "`tools/golden_runs.py --compare OUT_OLD OUT_NEW` to see by how much.")
