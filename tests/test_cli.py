'''
Command-line interface tests, run in-process through main(argv).
'''

import json
import math
import struct
import warnings

import numpy as np
import pytest

from conformal_retrieval.cli import main
from conformal_retrieval.dataset import load_dataset, write_mask_file
from conformal_retrieval.pipeline import load_model
from conformal_retrieval.retrieval import read_results_csv

SPACE_A = "name=s1,dim=12,sigma=0.2,query=a,reference=a"
SPACE_B = "name=s2,dim=10,sigma=0.4,query=b,reference=b"


def run_synth(out, seed=3, extra=()):
    return main([
        "synth", "--out", str(out),
        "--queries", "30", "--references", "20",
        "--query-modalities", "a,b", "--reference-modalities", "a,b",
        "--space", SPACE_A, "--space", SPACE_B,
        "--latent-dim", "6",
        "--query-dropout", "a:0.2,b:0.2", "--keep-at-least-one-query",
        "--seed", str(seed), *extra,
    ])


@pytest.fixture
def pipeline_dirs(tmp_path):
    data = tmp_path / "data"
    assert run_synth(data) == 0
    model = tmp_path / "model.json"
    split = tmp_path / "split.json"
    assert main(["calibrate", "--data", str(data), "--out", str(model),
                 "--cal-fraction", "0.4", "--seed", "5",
                 "--split-out", str(split)]) == 0
    return data, model, split


class TestSynth:
    def test_creates_loadable_dataset(self, tmp_path):
        out = tmp_path / "ds"
        assert run_synth(out) == 0
        ds = load_dataset(out)
        assert ds.n_queries == 30
        assert ds.n_references == 20
        assert set(ds.schema.query_modalities) == {"a", "b"}

    def test_deterministic_output_files(self, tmp_path):
        assert run_synth(tmp_path / "d1") == 0
        assert run_synth(tmp_path / "d2") == 0
        name = "query_a_s1.emb"
        assert (tmp_path / "d1" / name).read_bytes() == \
            (tmp_path / "d2" / name).read_bytes()

    def test_requires_a_space(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--queries", "10", "--references", "5"])
        assert code == 1

    def test_bad_space_grammar(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--queries", "10", "--references", "5",
                     "--space", "dim=8,sigma=0.1"])
        assert code == 1
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--queries", "10", "--references", "5",
                     "--space", "name=s,dim=8,sigmas=0.1"])
        assert code == 1


    @pytest.mark.parametrize("space, dropout", [
        ("name=s,dim=4,sigma=nan", "a:0.1"),
        ("name=s,dim=4,offset=nan", "a:0.1"),
        ("name=s,dim=4,sigma=inf", "a:0.1"),
        ("name=s,dim=4,sigma=0.1", "a:nan"),
    ], ids=["sigma-nan", "offset-nan", "sigma-inf", "dropout-nan"])
    def test_non_finite_recipe_is_exit_1(self, tmp_path, capsys, space, dropout):
        out = tmp_path / "x"
        code = main(["synth", "--out", str(out), "--queries", "10",
                     "--references", "5", "--query-modalities", "a",
                     "--reference-modalities", "a", "--space", space,
                     "--query-dropout", dropout])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--query-modalities", "a,a", "--space", "name=s,dim=4"],
        ["--space", "name=s,dim=0"],
        ["--space", "name=s,dim=4,query=z"],
        ["--space", "name=s,dim=4", "--space", "name=s,dim=4"],
        ["--space", "name=s,dim=4", "--space", "name=t,dim=4"],
    ], ids=["modality-twice", "dim-0", "unknown-modality", "space-twice",
            "pair-covered-twice"])
    def test_schema_fault_in_recipe_is_exit_1(self, tmp_path, capsys, flags):
        self.assert_refused(tmp_path, capsys, flags)

    @pytest.mark.parametrize("flags", [
        ["--query-modalities", "a/b", "--space", "name=s,dim=4"],
        ["--space", "name=s/t,dim=4"],
        ["--query-modalities", "a,a_s1", "--space", "name=s1_x,dim=4,query=a",
         "--space", "name=x,dim=4,query=a_s1"],
    ], ids=["slash-in-modality", "slash-in-space", "one-file-name"])
    def test_name_save_dataset_refuses_is_exit_1(self, tmp_path, capsys, flags):
        self.assert_refused(tmp_path, capsys, flags)

    @staticmethod
    def assert_refused(tmp_path, capsys, flags):
        out = tmp_path / "x"
        code = main(["synth", "--out", str(out), "--queries", "10",
                     "--references", "5", "--query-modalities", "a",
                     "--reference-modalities", "a", *flags])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def set_in(node, keys, value):
    '''Set node[keys[0]][keys[1]]... to value and return node.'''
    root = node
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return root


class TestManifest:
    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda m: [m], id="top-level-list"),
        pytest.param(lambda m: set_in(m, ["spaces"], {"s1": m["spaces"][0]}),
                     id="spaces-object"),
        pytest.param(lambda m: set_in(m, ["spaces", 0, "dim"], "x"), id="dim-string"),
        pytest.param(lambda m: set_in(m, ["relevance"], "relevance.csv"),
                     id="relevance-string"),
        pytest.param(lambda m: set_in(m, ["relevance"], {"type": "pairs"}),
                     id="relevance-without-path"),
        pytest.param(lambda m: set_in(m, ["pair_space"], ["a:a", "s1"]),
                     id="pair-space-list"),
        pytest.param(lambda m: set_in(m, ["spaces", 0, "query_embeddings"], ["a"]),
                     id="query-embeddings-list"),
        pytest.param(lambda m: set_in(m, ["query_modalities"], [["a"]]),
                     id="modality-not-a-string"),
        pytest.param(lambda m: set_in(m, ["pair_space"], {"a:a": ["s1"]}),
                     id="pair-space-value-not-a-string"),
        pytest.param(lambda m: set_in(m, ["version"], True), id="version-true"),
        pytest.param(lambda m: set_in(m, ["version"], 1.0), id="version-float"),
    ])
    def test_malformed_manifest_is_exit_2(self, tmp_path, capsys, mutate):
        data = tmp_path / "data"
        assert run_synth(data) == 0
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(mutate(json.loads(manifest.read_text()))))
        assert main(["calibrate", "--data", str(data),
                     "--out", str(tmp_path / "m.bin")]) == 2
        assert "error:" in capsys.readouterr().err


DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_FIELD = "1" * 200_000  # past the csv module's 131,072-character limit
RESULTS_HEADER = "query_id,rank,reference_id,probability,unanswerable\n"


def assert_one_error(capsys):
    err = capsys.readouterr().err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err
    return err


def repack_model(blob, edit=lambda doc: doc, pad=b"\0"):
    '''A model file with its metadata edited and its padding made of pad
    bytes; the metadata gets a trailing space where it would need none.'''
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    end = 16 + meta_len
    meta = json.dumps(edit(json.loads(blob[16:end]))).encode()
    meta += b" " * ((16 + len(meta)) % 8 == 0)
    padding = pad * (-(16 + len(meta)) % 8)
    return (struct.pack("<4sHHQ", b"A2AC", 2, 0, len(meta)) + meta + padding
            + blob[end + -end % 8:])


def damage_model(**repack):
    def damage(data, model):
        model.write_bytes(repack_model(model.read_bytes(), **repack))
    return damage


def damage_payload(edit):
    '''A model whose float64 payload, as a list, is replaced by edit(values).'''
    def damage(data, model):
        blob = model.read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        start = 16 + meta_len + -(16 + meta_len) % 8
        values = np.frombuffer(blob, "<f8", offset=start).tolist()
        model.write_bytes(blob[:start] + np.array(edit(values), "<f8").tobytes())
    return damage


def one_score_first_band(doc):
    '''Sizes that leave the first band one score and hand the rest of its
    scores to the second stage, so the payload length still agrees.'''
    first = doc["first_stage"][0]
    doc["second_stage"]["size"] += first["size"] - 1
    first["size"] = 1
    return doc


def damage_manifest(mutate):
    def damage(data, model):
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(mutate(json.loads(manifest.read_text()))))
    return damage


def damage_positions(first_row, query_rows):
    '''Relevance from position files whose first query row is first_row.'''
    def damage(data, model):
        rows = "".join(f"{i},{i},0\n" for i in range(1, query_rows))
        (data / "qpos.csv").write_text("id,x,y\n" + first_row + rows)
        (data / "rpos.csv").write_text(
            "id,x,y\n" + "".join(f"{i},{i},0\n" for i in range(20)))
        damage_manifest(lambda m: set_in(m, ["relevance"], {
            "type": "positions", "query_path": "qpos.csv",
            "reference_path": "rpos.csv", "threshold_meters": 1.5}))(data, model)
    return damage


class TestMalformedInputs:
    '''Every input a writer could not have produced exits 2 with one error
    line, whichever file it is in.'''

    @pytest.mark.parametrize("command, damage, message", [
        ("retrieve", damage_model(pad=b"\1"), "nonzero padding"),
        ("retrieve", damage_model(edit=lambda doc: {**doc, "schema_fingerprint": ""}),
         "empty schema_fingerprint"),
        ("calibrate", damage_manifest(lambda m: set_in(m, ["pair_space"], {"aa": "s1"})),
         "must look like 'qmod:rmod'"),
        ("calibrate", damage_manifest(lambda m: set_in(m, ["spaces", 1], "s2")),
         "space entries must be objects"),
        ("calibrate", damage_manifest(lambda m: set_in(
            m, ["spaces", 0, "reference_embeddings", "z"], "reference_a_s1.emb")),
         "unknown reference modality"),
        ("calibrate", damage_manifest(
            lambda m: set_in(m, ["reference_modalities"], ["a", "b", "a"])),
         "duplicate reference modality"),
        ("calibrate", damage_manifest(lambda m: set_in(m, ["reference_modalities"], [])),
         "modalities on both sides"),
        ("calibrate", lambda data, model: (data / "relevance.csv").write_text(
            (data / "relevance.csv").read_text() + "30,0\n"),
         "query_id 30 outside"),
        ("calibrate", damage_positions("0,nan,0\n", 30), "coordinates must be finite"),
        ("calibrate", damage_positions("0,0,0\n", 29), "query count disagrees"),
        ("calibrate", lambda data, model: write_mask_file(
            data / "query_mask.msk", np.ones((30, 3), dtype=bool)),
         "query mask must be"),
        ("calibrate", damage_manifest(lambda m: set_in(m, ["spaces", 0, "dim"], 0)),
         "dim must be >= 1"),
        ("inspect", damage_model(edit=one_score_first_band),
         "a band needs at least 2 nonconformity scores"),
        ("inspect", damage_payload(lambda values: values[:-1] + [math.nan]),
         "nonconformity scores must be finite"),
        ("inspect", damage_payload(lambda values: [values[0]] * 2 + values[2:]),
         "theta_min < theta_max"),
    ], ids=["model-padding", "model-empty-fingerprint", "pair-space-key-without-colon",
            "space-entry-not-an-object", "space-covers-unknown-reference-modality",
            "repeated-reference-modality", "no-reference-modalities",
            "relevance-query-out-of-range", "nan-position", "position-rows-disagree",
            "mask-column-count", "zero-space-dim", "band-with-one-score",
            "nan-band-score", "empty-band-range"])
    def test_damaged_input_is_exit_2(self, pipeline_dirs, tmp_path, capsys,
                                     command, damage, message):
        data, model, _ = pipeline_dirs
        damage(data, model)
        out, split = tmp_path / "out", tmp_path / "split-out.json"
        argv = {
            "calibrate": ["calibrate", "--data", str(data), "--out", str(out),
                          "--split-out", str(split)],
            "retrieve": ["retrieve", "--data", str(data), "--model", str(model),
                         "--k", "3", "--out", str(out)],
            "inspect": ["inspect", "--model", str(model)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert message in assert_one_error(capsys)
        assert not out.exists() and not split.exists()

    def calibrate(self, data, tmp_path):
        return main(["calibrate", "--data", str(data),
                     "--out", str(tmp_path / "m.bin")])

    @pytest.mark.parametrize("name, edit", [
        ("manifest.json", lambda blob: blob.replace(b'"s1"', b'"s\xff"', 1)),
        ("relevance.csv", lambda blob: blob + b"0,\xff\n"),
        ("relevance.csv", lambda blob: blob + LONG_FIELD.encode() + b",1\n"),
        ("manifest.json", lambda blob: DEEP_JSON.encode()),
    ], ids=["manifest-not-utf8", "relevance-not-utf8", "relevance-long-field",
            "manifest-deep-json"])
    def test_dataset_file(self, tmp_path, capsys, name, edit):
        data = tmp_path / "data"
        assert run_synth(data) == 0
        (data / name).write_bytes(edit((data / name).read_bytes()))
        capsys.readouterr()
        assert self.calibrate(data, tmp_path) == 2
        assert_one_error(capsys)

    @pytest.mark.parametrize("text", [
        RESULTS_HEADER.encode() + b"0,1,\xff,0.5,0\n",
        (RESULTS_HEADER + f"0,1,{LONG_FIELD},0.5,0\n").encode(),
    ], ids=["not-utf8", "long-field"])
    def test_results_file(self, pipeline_dirs, tmp_path, capsys, text):
        data, _, _ = pipeline_dirs
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text)
        capsys.readouterr()
        assert main(["evaluate", "--data", str(data), "--results", str(bad),
                     "--ks", "1"]) == 2
        assert_one_error(capsys)

    def test_deep_queries_file(self, pipeline_dirs, tmp_path, capsys):
        data, model, _ = pipeline_dirs
        queries = tmp_path / "queries.json"
        queries.write_text(DEEP_JSON)
        capsys.readouterr()
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--queries-file", str(queries),
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert_one_error(capsys)

    def test_deep_model_metadata(self, pipeline_dirs, tmp_path, capsys):
        _, model, _ = pipeline_dirs
        meta = DEEP_JSON.encode()
        model.write_bytes(struct.pack("<4sHHQ", b"A2AC", 2, 0, len(meta)) + meta)
        capsys.readouterr()
        assert main(["inspect", "--model", str(model)]) == 2
        assert_one_error(capsys)

    def test_override_naming_no_covering_space(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--queries", "10",
                     "--references", "8", "--query-modalities", "a",
                     "--reference-modalities", "a",
                     "--space", "name=s1,dim=4,sigma=0.2"]) == 0
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "pair_space": {"a:a": "nonexistent"}}))
        capsys.readouterr()
        assert self.calibrate(data, tmp_path) == 2
        assert_one_error(capsys)

    def test_nan_threshold(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_synth(data) == 0
        for name, n in (("qpos.csv", 30), ("rpos.csv", 20)):
            (data / name).write_text(
                "id,x,y\n" + "".join(f"{i},{i},0\n" for i in range(n)))
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["relevance"] = {"type": "positions", "query_path": "qpos.csv",
                            "reference_path": "rpos.csv",
                            "threshold_meters": "THRESHOLD"}
        text = json.dumps(doc)
        # json.loads reads 1e400 as inf; float() of a 401-digit int overflows
        for threshold in ("NaN", "-5", "1e400", "1" + "0" * 400):
            manifest.write_text(text.replace('"THRESHOLD"', threshold))
            capsys.readouterr()
            assert self.calibrate(data, tmp_path) == 2, threshold
            assert_one_error(capsys)

    def test_empty_embedding_with_huge_row_count(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_synth(data) == 0
        (data / "query_a_s1.emb").write_bytes(
            struct.pack("<4sHHQQ", b"A2AE", 1, 0, 2**62, 0))
        capsys.readouterr()
        assert self.calibrate(data, tmp_path) == 2
        assert_one_error(capsys)

    def test_signalling_nan_embedding_warns_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_synth(data) == 0
        path = data / "query_a_s1.emb"
        blob = bytearray(path.read_bytes())
        blob[24:28] = struct.pack("<I", 0x7F800001)  # first payload float
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.calibrate(data, tmp_path) == 2
        assert_one_error(capsys)


class TestCalibrate:
    def test_writes_model_and_split(self, pipeline_dirs):
        data, model, split = pipeline_dirs
        fitted = load_model(model)
        assert fitted.fuser.value == "mean"
        assert ("a", "a") in fitted.first_stage
        doc = json.loads(split.read_text())
        cal, test = doc["calibration"], doc["test"]
        assert len(cal) == 12  # floor(0.4 * 30 + 0.5)
        assert sorted(cal + test) == list(range(30))

    def test_fuser_and_subsample_flags(self, tmp_path, pipeline_dirs):
        data, _, _ = pipeline_dirs
        out = tmp_path / "m2.json"
        assert main(["calibrate", "--data", str(data), "--out", str(out),
                     "--fuser", "max", "--negative-subsample", "0.5:9"]) == 0
        assert load_model(out).fuser.value == "max"

    def test_empty_subsample_is_no_subsample(self, tmp_path, pipeline_dirs):
        data, model, _ = pipeline_dirs
        out = tmp_path / "m2.bin"
        assert main(["calibrate", "--data", str(data), "--out", str(out),
                     "--cal-fraction", "0.4", "--seed", "5",
                     "--negative-subsample", ""]) == 0
        assert out.read_bytes() == model.read_bytes()

    def test_missing_data_is_exit_2(self, tmp_path):
        assert main(["calibrate", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_bad_fraction_is_exit_1(self, pipeline_dirs, tmp_path):
        data, _, _ = pipeline_dirs
        assert main(["calibrate", "--data", str(data),
                     "--out", str(tmp_path / "m.json"),
                     "--cal-fraction", "1.5"]) == 1


class TestRetrieve:
    def test_writes_results(self, pipeline_dirs, tmp_path):
        data, model, _ = pipeline_dirs
        out = tmp_path / "results.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "5", "--out", str(out)]) == 0
        results = read_results_csv(out)
        assert [r.query_index for r in results] == list(range(30))
        assert all(len(r.ranked) == 5 for r in results)

    def test_query_subset_flag(self, pipeline_dirs, tmp_path):
        data, model, _ = pipeline_dirs
        out = tmp_path / "results.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "3", "--queries", "4,2,9", "--out", str(out)]) == 0
        assert [r.query_index for r in read_results_csv(out)] == [4, 2, 9]

    def test_queries_file_uses_test_split(self, pipeline_dirs, tmp_path):
        data, model, split = pipeline_dirs
        out = tmp_path / "results.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "3", "--queries-file", str(split),
                     "--out", str(out)]) == 0
        expected = json.loads(split.read_text())["test"]
        assert [r.query_index for r in read_results_csv(out)] == expected

    def test_shortlist_mode_and_workers(self, pipeline_dirs, tmp_path):
        data, model, _ = pipeline_dirs
        exact = tmp_path / "exact.csv"
        fast = tmp_path / "fast.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "5", "--out", str(exact), "--workers", "3"]) == 0
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "5", "--mode", "shortlist", "--shortlist-alpha", "4",
                     "--out", str(fast)]) == 0
        assert exact.read_bytes() == fast.read_bytes()

    def test_huge_shortlist_alpha_covers_every_reference(self, pipeline_dirs,
                                                         tmp_path):
        # alpha * k overflows a float; the budget is capped at the reference
        # count, so the shortlist ranks what exact retrieval ranks
        data, model, _ = pipeline_dirs
        exact = tmp_path / "exact.csv"
        fast = tmp_path / "fast.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "5", "--out", str(exact)]) == 0
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "5", "--mode", "shortlist", "--shortlist-alpha", "1e308",
                     "--out", str(fast)]) == 0
        assert exact.read_bytes() == fast.read_bytes()

    def test_model_dataset_mismatch_is_exit_3(self, pipeline_dirs, tmp_path):
        _, model, _ = pipeline_dirs
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--queries", "10",
                     "--references", "8", "--query-modalities", "a",
                     "--reference-modalities", "a",
                     "--space", "name=s1,dim=12,sigma=0.2", "--seed", "1"]) == 0
        for mode in ("exact", "shortlist"):
            assert main(["retrieve", "--data", str(other), "--model", str(model),
                         "--k", "3", "--mode", mode,
                         "--out", str(tmp_path / "r.csv")]) == 3

    @pytest.mark.parametrize("old, new", [
        (b'"query_modality":"a"', b'"query_modality":"c"'),
        (b'"query_modality":"a"', b'"query_modality":"b"'),
    ], ids=["unknown-modality", "uncovered-pair"])
    def test_model_band_the_dataset_does_not_score_is_exit_3(
            self, pipeline_dirs, tmp_path, capsys, old, new):
        # the fingerprint still matches; only a band's pair differs
        data, model, _ = pipeline_dirs
        model.write_bytes(model.read_bytes().replace(old, new, 1))
        for mode in ("exact", "shortlist"):
            capsys.readouterr()
            assert main(["retrieve", "--data", str(data), "--model", str(model),
                         "--k", "3", "--mode", mode,
                         "--out", str(tmp_path / "r.csv")]) == 3
            assert "dataset does not score pair" in capsys.readouterr().err

    def test_duplicate_query_ids_is_exit_1(self, pipeline_dirs, tmp_path):
        data, model, _ = pipeline_dirs
        out = tmp_path / "results.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "3", "--queries", "5,5", "--out", str(out)]) == 1
        assert not out.exists()

    def test_id_past_int64_is_out_of_range(self, pipeline_dirs, tmp_path, capsys):
        data, model, _ = pipeline_dirs
        queries = tmp_path / "queries.json"
        queries.write_text("[99999999999999999999999]")
        for flags in (["--queries", "99999999999999999999999"],
                      ["--queries-file", str(queries)]):
            capsys.readouterr()
            assert main(["retrieve", "--data", str(data), "--model", str(model),
                         "--k", "3", "--out", str(tmp_path / "r.csv"), *flags]) == 1
            assert "error: query id out of range [0, 30)" in capsys.readouterr().err
            assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_shortlist_alpha_is_exit_1(self, pipeline_dirs, tmp_path,
                                                  capsys, alpha):
        data, model, _ = pipeline_dirs
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "3", "--mode", "shortlist", "--shortlist-alpha", alpha,
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert "error: argument --shortlist-alpha:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[4, 2", '{"test": "4,2"}', "[true, false]"],
                             ids=["not-json", "test-not-a-list", "booleans"])
    def test_malformed_queries_file_is_exit_2(self, pipeline_dirs, tmp_path, text):
        data, model, _ = pipeline_dirs
        queries = tmp_path / "queries.json"
        queries.write_text(text)
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "3", "--queries-file", str(queries),
                     "--out", str(tmp_path / "r.csv")]) == 2


class TestEvaluate:
    def test_report_file_and_stdout(self, pipeline_dirs, tmp_path, capsys):
        data, model, _ = pipeline_dirs
        results = tmp_path / "results.csv"
        report = tmp_path / "report.json"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "10", "--out", str(results)]) == 0
        assert main(["evaluate", "--data", str(data), "--results", str(results),
                     "--ks", "1,5", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["ks"] == [1, 5]
        assert 0.0 <= doc["recall_at"]["5"] <= 1.0
        out = capsys.readouterr().out
        assert "recall@1" in out

    def test_baseline_flag(self, pipeline_dirs, tmp_path, capsys):
        data, model, _ = pipeline_dirs
        results = tmp_path / "results.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "5", "--out", str(results)]) == 0
        assert main(["evaluate", "--data", str(data), "--results", str(results),
                     "--ks", "5", "--baseline", "a:a,b:b"]) == 0
        out = capsys.readouterr().out
        assert "baseline recall@5" in out

    def test_corrupt_results_is_exit_2(self, pipeline_dirs, tmp_path):
        data, _, _ = pipeline_dirs
        bad = tmp_path / "bad.csv"
        bad.write_text("not,the,right,header\n")
        assert main(["evaluate", "--data", str(data), "--results", str(bad),
                     "--ks", "5"]) == 2

    @pytest.mark.parametrize("row", ["0,1,-1,0.5,0", "-1,1,0,0.5,0",
                                     "0,1,0,nan,0", "0,1,3,0.5,0\n0,2,3,0.25,0"],
                             ids=["negative-reference", "negative-query", "nan",
                                  "reference-twice"])
    def test_row_no_writer_emits_is_exit_2(self, pipeline_dirs, tmp_path, row):
        data, _, _ = pipeline_dirs
        bad = tmp_path / "bad.csv"
        bad.write_text(f"query_id,rank,reference_id,probability,unanswerable\n{row}\n")
        assert main(["evaluate", "--data", str(data), "--results", str(bad),
                     "--ks", "1"]) == 2

    def test_reference_past_the_dataset_is_exit_1(self, pipeline_dirs, tmp_path,
                                                  capsys):
        data, _, _ = pipeline_dirs  # 20 references
        bad = tmp_path / "bad.csv"
        bad.write_text("query_id,rank,reference_id,probability,unanswerable\n"
                       "0,1,999,0.5,0\n")
        assert main(["evaluate", "--data", str(data), "--results", str(bad),
                     "--ks", "1"]) == 1
        assert "outside [0, 20)" in capsys.readouterr().err

    # a results file that agrees with the format but is too short for the
    # cutoffs is a usage error: retrieve --k below the largest cutoff makes one
    @pytest.mark.parametrize("rows, message", [
        ("0,1,3,0.5,0\n", "has 1 entries, needs 2"),
        ("", "need at least one retrieval result"),
    ], ids=["short-list", "header-only"])
    def test_results_too_short_for_cutoffs_is_exit_1(self, pipeline_dirs, tmp_path,
                                                     capsys, rows, message):
        data, _, _ = pipeline_dirs
        short = tmp_path / "short.csv"
        short.write_text(RESULTS_HEADER + rows)
        capsys.readouterr()
        assert main(["evaluate", "--data", str(data), "--results", str(short),
                     "--ks", "1,2"]) == 1
        assert message in capsys.readouterr().err

    def test_baseline_scores_are_read_back(self, pipeline_dirs, tmp_path):
        # raw baseline scores may be negative, and -inf marks unanswerable
        data, _, _ = pipeline_dirs
        raw = tmp_path / "raw.csv"
        raw.write_text("query_id,rank,reference_id,probability,unanswerable\n"
                       "0,1,3,-0.25,0\n0,2,7,-inf,1\n")
        assert main(["evaluate", "--data", str(data), "--results", str(raw),
                     "--ks", "1,2"]) == 0


class TestInspect:
    def test_prints_band_summary(self, pipeline_dirs, capsys):
        _, model, _ = pipeline_dirs
        assert main(["inspect", "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert "fuser mean" in out
        assert "a->a" in out
        assert "second stage" in out

    def test_missing_model_is_exit_2(self, tmp_path):
        assert main(["inspect", "--model", str(tmp_path / "nope.json")]) == 2

    def test_json_model_is_exit_2(self, pipeline_dirs, tmp_path, capsys):
        data, _, _ = pipeline_dirs
        band = {"theta_min": 0, "theta_max": 1, "sorted_gamma": [0.25, 0.5]}
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "version": 1, "schema_fingerprint": "f" * 64, "fuser": "mean",
            "first_stage": [{"query_modality": "a", "reference_modality": "a",
                             "space": "s1", **band}],
            "second_stage": band}, indent=2))
        assert main(["inspect", "--model", str(old)]) == 2
        assert main(["retrieve", "--data", str(data), "--model", str(old),
                     "--k", "3", "--out", str(tmp_path / "r.csv")]) == 2
        assert "re-run calibrate" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["inspect", "--frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_bad_subsample_grammar(self, pipeline_dirs, tmp_path):
        data, _, _ = pipeline_dirs
        assert main(["calibrate", "--data", str(data),
                     "--out", str(tmp_path / "m.json"),
                     "--negative-subsample", "lots"]) == 1

    @pytest.mark.parametrize("command, flags", [
        ("synth", ["--space", "name=s,dim=4", "--query-dropout", "a:0.1,a:0.9"]),
        ("synth", ["--space", "name=s,dim=4", "--reference-dropout", "b:0.2,b:0.3"]),
        ("synth", ["--space", "name=s,dim=4,query=a+a"]),
        ("synth", ["--space", "name=s,dim=4", "--query-dropout", "a"]),
        ("evaluate", ["--baseline", "a:"]),
        ("calibrate", ["--negative-subsample", "0.5"]),
        ("calibrate", ["--seed", "-1"]),
        ("calibrate", ["--negative-subsample", "0.5:-3"]),
        ("synth", ["--space", "name=s,dim=4", "--seed", "-2"]),
        ("synth", ["--space", "name=s,dim=4", "--queries", "0"]),
        ("synth", ["--space", "name=s,dim=4", "--references", "-1"]),
        ("synth", ["--space", "name=s,dim=4", "--latent-dim", "0"]),
        ("synth", ["--space", "name=s,dim=4", "--relevant-per-query", "0"]),
        ("calibrate", ["--cal-fraction", "1.5"]),
        ("calibrate", ["--cal-fraction", "0"]),
        ("retrieve", ["--workers", "0"]),
        ("retrieve", ["--k", "0"]),
        ("retrieve", ["--mode", "exact", "--shortlist-alpha", "nan"]),
        ("retrieve", ["--mode", "shortlist", "--shortlist-alpha", "0.5"]),
        ("retrieve", ["--shortlist-alpha", "inf"]),
        ("evaluate", ["--ks", "0"]),
        ("evaluate", ["--ks", "1,-5"]),
        ("calibrate", ["--negative-subsample", "1.5:3"]),
        ("calibrate", ["--negative-subsample", "nan:3"]),
        ("synth", ["--space", "name=s,dim=4", "--query-dropout", "a:1.5"]),
        ("synth", ["--space", "name=s,dim=4", "--query-dropout", "a:nan"]),
        ("synth", ["--space", "name=s,dim=4", "--reference-dropout", "b:-0.1"]),
        ("synth", ["--space", "name=s,dim=0"]),
        ("synth", ["--space", "name=s,dim=4,sigma=nan"]),
        ("synth", ["--space", "name=s,dim=4,sigma=-1"]),
        ("synth", ["--space", "name=s,dim=4,offset=inf"]),
        ("synth", ["--space", "name=s,dim=x"]),
        ("synth", ["--space", "name=s,dim=4,sigma=x"]),
        ("synth", ["--space", "name=s,dim=4,offset=x"]),
        ("synth", ["--space", "name=s,dim=4", "--queries", "abc"]),
        ("calibrate", ["--negative-subsample", "0.5:x"]),
        ("synth", ["--space", "name=s,dim=4", "--query-modalities", ","]),
        ("retrieve", ["--queries", ","]),
    ], ids=["dropout-key-twice", "reference-dropout-key-twice",
            "space-modality-twice", "dropout-without-probability",
            "baseline-without-reference-modality", "subsample-without-seed",
            "negative-split-seed", "negative-subsample-seed", "negative-synth-seed",
            "zero-queries", "negative-references", "zero-latent-dim",
            "zero-relevant-per-query", "cal-fraction-above-1", "cal-fraction-0",
            "zero-workers", "zero-k", "nan-alpha-in-exact-mode",
            "alpha-below-1", "infinite-alpha", "zero-cutoff", "negative-cutoff",
            "subsample-ratio-above-1", "nan-subsample-ratio",
            "dropout-above-1", "nan-dropout", "negative-reference-dropout",
            "zero-space-dim", "nan-space-sigma", "negative-space-sigma",
            "infinite-space-offset", "non-number-space-dim",
            "non-number-space-sigma", "non-number-space-offset",
            "non-number-queries", "non-number-subsample-seed",
            "no-query-modalities", "no-query-ids"])
    def test_bad_flag_value_is_exit_1(self, pipeline_dirs, tmp_path, capsys,
                                      command, flags):
        data, model, _ = pipeline_dirs
        results = tmp_path / "r.csv"
        assert main(["retrieve", "--data", str(data), "--model", str(model),
                     "--k", "3", "--out", str(results)]) == 0
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--out", str(out), "--queries", "10",
                      "--references", "5"],
            "calibrate": ["calibrate", "--data", str(data), "--out", str(out)],
            "retrieve": ["retrieve", "--data", str(data), "--model", str(model),
                         "--out", str(out)],
            "evaluate": ["evaluate", "--data", str(data), "--results",
                         str(results), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert f"error: argument {flags[-2]}:" in err
        message = err.rsplit(f"argument {flags[-2]}:", 1)[1]
        # a bad --space number names its field, like dim in "name=s,dim=0"
        field = flags[-1].rsplit(",", 1)[-1].split("=")[0]
        if flags[-2] == "--space" and field in ("dim", "sigma", "offset"):
            assert field in message
        # a value that is no number at all names the rule, not int()/float()
        rule = {"abc": "an integer of at least 1",
                "0.5:x": "a non-negative integer"}.get(flags[-1])
        assert rule is None or f"expected {rule}" in message
        assert "int()" not in message and "convert" not in message
        assert "Traceback" not in err
        assert not out.exists()

    def test_console_script_installed(self):
        import shutil
        import subprocess

        exe = shutil.which("conformal-retrieval")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "retrieve" in proc.stdout
