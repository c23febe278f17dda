'''
Seeded fuzzing of the exit-code contract.

Each trial damages one input file (a bit flip, a truncation, a byte set to
0xff, or a u64 written near the start) and runs calibrate, retrieve or
evaluate on it through cli.main. Whatever the damage, the command exits 0,
2 (malformed file) or 3 (schema mismatch), and a failing command prints
exactly one "error:" line and no traceback. Exit 3 needs a damaged model or
manifest. Exit 1 is allowed only for a results file that reads back but
cannot be scored at the requested cutoffs: a list shorter than the largest
cutoff, no rows at all, or an id outside the dataset.
'''

import struct

import numpy as np
import pytest

from conformal_retrieval.cli import main

SEED = 7
TRIALS = 400
KS = "1,5"

# (file kind, name pattern) in the order a trial draws them from
TARGETS = (("manifest", "data/manifest.json"), ("relevance", "data/relevance.csv"),
           ("embedding", "data/*.emb"), ("mask", "data/*.msk"),
           ("model", "model.bin"), ("results", "results.csv"))

SCORING_MESSAGES = ("entries, needs", "need at least one retrieval result",
                    "outside [0, ")


def command(name, root):
    data, model = str(root / "data"), str(root / "model.bin")
    return {
        "calibrate": ["calibrate", "--data", data, "--out", str(root / "out.bin")],
        "retrieve": ["retrieve", "--data", data, "--model", model, "--k", "5",
                     "--out", str(root / "out.csv")],
        "evaluate": ["evaluate", "--data", data, "--results",
                     str(root / "results.csv"), "--ks", KS],
    }[name]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(root / "data"), "--queries", "30",
                 "--references", "20", "--query-modalities", "a,b",
                 "--reference-modalities", "a,b",
                 "--space", "name=s1,dim=12,sigma=0.2,query=a,reference=a",
                 "--space", "name=s2,dim=10,sigma=0.4,query=b,reference=b",
                 "--latent-dim", "6", "--query-dropout", "a:0.2,b:0.2",
                 "--keep-at-least-one-query", "--seed", "3"]) == 0
    assert main(["calibrate", "--data", str(root / "data"),
                 "--out", str(root / "model.bin"), "--seed", "5"]) == 0
    assert main(["retrieve", "--data", str(root / "data"), "--model",
                 str(root / "model.bin"), "--k", "5",
                 "--out", str(root / "results.csv")]) == 0
    return root


def mutate(blob, rng):
    '''blob with one random bit flip, truncation, 0xff byte or u64 write.'''
    out = bytearray(blob)
    kind = rng.integers(4)
    if kind == 1 or len(out) < 8:
        return bytes(out[:rng.integers(len(out) + 1)])
    if kind == 0:
        out[rng.integers(len(out))] ^= 1 << int(rng.integers(8))
    elif kind == 2:
        out[rng.integers(len(out))] = 0xFF
    else:
        at = int(rng.integers(min(32, len(out) - 7)))
        value = (0, 1, 2**62, 2**63, 2**64 - 1, int(rng.integers(2**63)))[rng.integers(6)]
        out[at:at + 8] = struct.pack("<Q", value)
    return bytes(out)


def run_damaged(root, path, blob, name, capsys):
    '''(exit code, stderr) of command name with path holding blob; the
    file is restored afterwards. An exception escaping main is reported as
    the exit code.'''
    original = path.read_bytes()
    path.write_bytes(blob)
    capsys.readouterr()
    try:
        code = main(command(name, root))
    except Exception as exc:  # reported as a breach, not hidden
        code = f"raised {exc!r}"
    finally:
        path.write_bytes(original)
    return code, capsys.readouterr().err


def contract_breach(kind, code, err):
    '''Why an outcome breaks the exit-code contract, or None.'''
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0:
        return None
    if code not in (1, 2, 3):
        return f"exit {code}"
    if len(errors) != 1 or "Traceback" in err:
        return f"exit {code} printed {len(errors)} error lines: {err!r}"
    if code == 3 and kind not in ("manifest", "model"):
        return f"exit 3 from a damaged {kind} file: {errors[0]}"
    if code == 1 and not (kind == "results"
                          and any(m in errors[0] for m in SCORING_MESSAGES)):
        return f"exit 1 from a damaged {kind} file: {errors[0]}"
    return None


def test_damaged_inputs_keep_the_exit_code_contract(workspace, capsys):
    rng = np.random.default_rng(SEED)
    breaches, codes = [], []
    for trial in range(TRIALS):
        kind, pattern = TARGETS[rng.integers(len(TARGETS))]
        paths = sorted(workspace.glob(pattern))
        path = paths[rng.integers(len(paths))]
        name = {"model": "retrieve", "results": "evaluate"}.get(
            kind, ("calibrate", "retrieve", "evaluate")[rng.integers(3)])
        code, err = run_damaged(workspace, path, mutate(path.read_bytes(), rng),
                                name, capsys)
        codes.append(code)
        breach = contract_breach(kind, code, err)
        if breach:
            breaches.append(f"trial {trial}: {name} on {path.name}: {breach}")
    assert breaches == []
    # the damage reaches past the first check: some runs still succeed
    assert codes.count(0) > 0 and codes.count(2) > 0


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
LONG_FIELD = b"1" * 200_000  # past the csv module's 131,072-character limit


@pytest.mark.parametrize("kind, name, blob", [
    ("manifest", "calibrate", DEEP_JSON),
    ("model", "retrieve",
     struct.pack("<4sHHQ", b"A2AC", 2, 0, len(DEEP_JSON)) + DEEP_JSON),
    ("relevance", "calibrate", b"query_id,reference_id\n0," + LONG_FIELD + b"\n"),
    ("results", "evaluate",
     b"query_id,rank,reference_id,probability,unanswerable\n0,1," + LONG_FIELD
     + b",0.5,0\n"),
], ids=["deep-manifest", "deep-model-metadata", "long-relevance-field",
        "long-results-field"])
def test_fixed_inputs_exit_2(workspace, capsys, kind, name, blob):
    pattern = dict(TARGETS)[kind]
    code, err = run_damaged(workspace, workspace / pattern, blob, name, capsys)
    assert code == 2
    assert contract_breach(kind, code, err) is None
