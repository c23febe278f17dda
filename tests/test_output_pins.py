'''
Output pins: one small CLI sequence must write the same bytes as the
committed table in output_pins.json.

test_10 compares worker counts within one run; this compares runs across
commits. The sequence is synth with two spaces and dropout, calibrate with
each fuser under a negative subsample, retrieve in exact and shortlist mode
through the split file, and evaluate with a report and a baseline. Every
file it writes is hashed with sha256, and so is evaluate's printed report,
the only place the baseline appears.

einsum's reduction order is tied to the numpy build, so the table records
the environment it was made in and a mismatch names both. A change that
means to alter output bytes regenerates the table explicitly:

    PYTHONPATH=src python tests/test_output_pins.py --write

A pytest run never writes it.
'''

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from conformal_retrieval.cli import main

TABLE = Path(__file__).with_name("output_pins.json")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _run(argv: list) -> str:
    '''Run one command in-process; return what it printed.'''
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"exit {code}: {' '.join(argv)}")
    return printed.getvalue()


def output_digests(root: Path) -> dict:
    '''Run the pinned sequence under root; sha256 of every output by name.'''
    data = root / "data"
    printed = {}
    _run(["synth", "--out", str(data), "--queries", "60", "--references", "40",
          "--query-modalities", "a,b", "--reference-modalities", "a,b",
          "--space", "name=s1,dim=12,sigma=0.3,query=a,reference=a+b",
          "--space", "name=s2,dim=8,sigma=0.5,offset=0.1,query=b,reference=b",
          "--latent-dim", "6", "--query-dropout", "a:0.3,b:0.2",
          "--reference-dropout", "b:0.25", "--keep-at-least-one-query",
          "--seed", "21"])
    for fuser in ("mean", "max"):
        model, split = root / f"{fuser}.model", root / f"{fuser}.split.json"
        _run(["calibrate", "--data", str(data), "--out", str(model),
              "--fuser", fuser, "--cal-fraction", "0.5", "--seed", "4",
              "--negative-subsample", "0.25:7", "--split-out", str(split)])
        for mode in ("exact", "shortlist"):
            results = root / f"{fuser}.{mode}.csv"
            _run(["retrieve", "--data", str(data), "--model", str(model),
                  "--k", "10", "--mode", mode, "--shortlist-alpha", "1",
                  "--queries-file", str(split), "--out", str(results)])
            report = root / f"{fuser}.{mode}.report.json"
            printed[f"{fuser}.{mode}.evaluate.stdout"] = _run(
                ["evaluate", "--data", str(data), "--results", str(results),
                 "--out", str(report), "--baseline", "a:a,b:b"])
    digests = {path.relative_to(root).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(root.rglob("*")) if path.is_file()}
    digests.update({name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for name, text in printed.items()})
    return dict(sorted(digests.items()))


def test_outputs_match_the_pinned_table(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    got = output_digests(tmp_path)
    changed = sorted(name for name in table["sha256"].keys() | got.keys()
                     if table["sha256"].get(name) != got.get(name))
    assert not changed, (
        f"output bytes differ from {TABLE.name} in {changed}; the table was "
        f"made with {table['environment']}, this run has {environment()}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as scratch:
        pins = {"environment": environment(), "sha256": output_digests(Path(scratch))}
    TABLE.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(pins['sha256'])} digests to {TABLE}")
