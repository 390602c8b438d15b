"""Every byte that ``proxgap`` prints or writes, pinned against stored output.

Each case runs ``cli.main`` once with its output on stdout and once with
``--out`` in a fresh directory.  Exit code, stdout, stderr and every file
left behind (the CSV, the eval JSON, the sweep sidecar) must equal
``tests/data/cli_golden.json`` exactly, CRLF line ends included.

Regenerate the data, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import sys
from pathlib import Path

import pytest

from proxgap.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# (name, command line, file name for --out)
_RUNS = (
    ("eval-csv", "eval --spec energy:dim=2 --x 1,0 --xstar 0,1 --gamma 1.0", "eval.csv"),
    (
        "eval-csv-subspace",
        "eval --spec subspace:dim=2:basis=1,0 --x 2,0 --xstar 0,3 --gamma 0.5",
        "eval.csv",
    ),
    (
        "eval-json-burg",
        "eval --spec burg --x 2 --xstar -0.5 --gamma 2.0 --format json",
        "eval.json",
    ),
    (
        "eval-json-shannon",
        "eval --spec shannon --x 0.3 --xstar 1.7 --gamma 0.1 --format json",
        "eval.json",
    ),
    ("sweep-energy", "sweep --spec energy:dim=2 --x 1,0 --xstar 0,1 --count 9", "sweep.csv"),
    ("sweep-rotator", "sweep --spec rotator --x 2,-1 --xstar 0.5,0.5 --count 13", "sweep.csv"),
    (
        "series-constant",
        "series --spec energy:dim=2 --x 1,0 --xstar 0,1 --gamma 1.0 --n-terms 30",
        "series.csv",
    ),
    (
        "series-schedule",
        "series --spec subspace:dim=2:basis=1,0 --x 11,3 --xstar 5,7"
        " --gammas 2,0.5,1,4 --n-terms 4",
        "series.csv",
    ),
    ("pgm", "pgm --step 0.5 --gamma 1.0 --iters 40", "pgm.csv"),
    ("pgm-y0", "pgm --gamma 0.3 --iters 25 --y0=-2.5,1.25", "pgm.csv"),
)

CASES = [
    (f"{name}-{target}", line.split() + (["--out", f"out/{out}"] if target == "file" else []))
    for name, line, out in _RUNS
    for target in ("stdout", "file")
]


def _record(argv, run_dir, capture):
    """Run argv inside run_dir; return exit code, stdout, stderr and written files."""
    code = main(argv)
    out, err = capture()
    files = {
        path.relative_to(run_dir).as_posix(): path.read_bytes().decode()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }
    return {"argv": argv, "code": code, "stdout": out, "stderr": err, "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_data_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_is_byte_identical(name, argv, golden, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PROXGAP_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)

    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err

    assert _record(argv, tmp_path, capture) == golden[name]


def _regenerate():
    import contextlib
    import io
    import tempfile

    data = {}
    start = os.getcwd()
    for name, argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            out, err = io.StringIO(newline=""), io.StringIO(newline="")
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    data[name] = _record(argv, Path(tmp), lambda: (out.getvalue(), err.getvalue()))
            finally:
                os.chdir(start)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
