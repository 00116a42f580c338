import base64
import contextlib
import gc
import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from medext import cli
from medext import corpus as C
from medext import tensor as T
from medext.cli import DEFAULT_CONFIG, build_parser, main
from medext.corpus import TagScheme, generate_synthetic_corpus, load_annotations, load_conll
from medext.fewshot import sample_k_shot


def edit_floats(section: dict, key: str, edit) -> None:
    """Apply ``edit`` to a copy of the float64 vector held as base64 text in
    ``section[key]`` (an edit that returns None changes it in place) and
    write the result back as base64."""
    floats = np.frombuffer(base64.b64decode(section[key]), dtype="<f8").copy()
    edited = edit(floats)
    section[key] = base64.b64encode((floats if edited is None else edited).tobytes()).decode()


# malformed optimizer moments, each with the message it exits 1 with
MOMENTS = {
    "missing": (lambda p: p["optimizer"].pop("moments"), "optimizer is missing key 'moments'"),
    "not-a-string": (
        lambda p: p["optimizer"].update(moments=7), "optimizer moments is not valid base64"
    ),
    "wrong-length": (
        lambda p: edit_floats(p["optimizer"], "moments", lambda f: f[:-1]),
        "optimizer moments holds",
    ),
    "non-finite": (
        lambda p: edit_floats(p["optimizer"], "moments", lambda f: f.fill(np.inf)),
        "optimizer moments has non-finite values",
    ),
}


def run(*argv):
    return main(list(argv))


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert run("gen-corpus", "--size", "60", "--corpus-seed", "3", "--out", str(out)) == 0
    return out / "corpus.tsv", out / "annotations.jsonl"


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, corpus_files):
    tags, ann = corpus_files
    out = tmp_path_factory.mktemp("model")
    code = run(
        "train", "--tags", str(tags), "--annotations", str(ann),
        "--steps", "40", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    return out / "model.json"


@pytest.fixture(scope="module")
def failing_inputs(tmp_path_factory, corpus_files, trained_model):
    """Inputs that must fail before any work: a copy of the corpus whose
    last sentence (60, in the test split) gains 14 unseen words and whose
    first gains 70 words, both over max_len; the trained model; a
    pretrain-only checkpoint, which has no head; tag files of 0, 1 and 5
    sentences, whose test, train and val splits are empty; a config file
    that holds a JSON list; and a copy of each kind of input file with one
    0xFF byte on its first line."""
    out = tmp_path_factory.mktemp("failing")
    blocks = corpus_files[0].read_text().rstrip("\n").split("\n\n")
    for name, size in (("EMPTY", 0), ("ONE", 1), ("FIVE", 5)):
        (out / f"{name}.tsv").write_text("".join(f"{b}\n\n" for b in blocks[:size]))
    long = list(blocks)
    long[0] += "\nqzxvkj\tO" * 70
    long[-1] += "".join(f"\nqzx{letter}vkj\tO" for letter in "abcdefghijklmn")
    (out / "long.tsv").write_text("\n\n".join(long) + "\n")
    assert run("pretrain", "--size", "20", "--steps", "1", "--out", str(out)) == 0
    inputs = {"LONG": str(out / "long.tsv"), "MODEL": str(trained_model),
              "HEADLESS": str(out / "encoder.json"), "TAGS": str(corpus_files[0])}
    inputs.update({name: str(out / f"{name}.tsv") for name in ("EMPTY", "ONE", "FIVE")})
    (out / "list.json").write_text("[1, 2]\n")
    inputs["LIST_CONFIG"] = str(out / "list.json")
    texts = {"TAGS": corpus_files[0], "ANN": corpus_files[1], "MODEL": trained_model,
             "CONFIG": out / "resolved_config.json", "TEXT": None}
    for name, source in texts.items():
        lines = source.read_bytes().split(b"\n") if source else [b"aspirin for pain"] * 2
        lines[0] = lines[0][:3] + b"\xff" + lines[0][3:]
        (out / f"bad_{name}").write_bytes(b"\n".join(lines))
        inputs[f"BAD_{name}"] = str(out / f"bad_{name}")
    return inputs


class TestGenCorpus:
    def test_size_zero_writes_valid_empty_files(self, tmp_path):
        assert run("gen-corpus", "--size", "0", "--out", str(tmp_path)) == 0
        corpus = load_conll(tmp_path / "corpus.tsv", TagScheme())
        assert len(corpus) == 0
        assert (tmp_path / "annotations.jsonl").read_text() == ""

    def test_outputs_load_back(self, corpus_files):
        tags, ann = corpus_files
        corpus = load_annotations(load_conll(tags, TagScheme()), ann)
        assert len(corpus) == 60

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-corpus", "--size", "25", "--corpus-seed", "9", "--out", str(out)) == 0
        assert read_tree(a) == read_tree(b)


NO_FLOAT = "1" + "0" * 400  # a JSON integer that float() cannot hold


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run("train", "--bogus") == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_every_run_reuses_one_parser(self, monkeypatch, capsys):
        parser, parsed = build_parser(), []

        def parse_args(argv):
            parsed.append(argv)
            return type(parser).parse_args(parser, argv)

        monkeypatch.setattr(parser, "parse_args", parse_args)
        assert run("train", "--bogus") == 1
        assert run("eval", "--checkpoint", "missing.json") == 1
        assert len(parsed) == 2 and build_parser() is parser

    def test_unknown_config_key_via_set(self, capsys):
        assert run("train", "--set", "train.bogus=1") == 1
        assert "train.bogus" in capsys.readouterr().err

    def test_unknown_config_key_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"train": {"mystery_knob": 2}}))
        assert run("train", "--config", str(cfg)) == 1
        assert "train.mystery_knob" in capsys.readouterr().err

    def test_missing_corpus_file(self, capsys):
        assert run("train", "--tags", "/nonexistent/corpus.tsv") == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path):
        assert run("eval", "--checkpoint", str(tmp_path / "nope.json")) == 1

    def test_invalid_config_value(self, capsys):
        assert run("train", "--set", "train.learning_rate=-1") == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_non_object_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "listed.json"
        ckpt.write_text("[]")
        assert run("eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")) == 1
        assert "listed.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            MOMENTS["missing"],
            (lambda p: p["optimizer"].pop("step"), "optimizer is missing key 'step'"),
            (lambda p: p.update(optimizer=[]), "optimizer must be a JSON object"),
            (lambda p: p.update(head_kind="bogus"), "unknown head_kind 'bogus'"),
            (lambda p: p.update(format_version=1), "unsupported checkpoint version 1"),
            pytest.param(
                lambda p: p.update(format_version=2),
                "unsupported checkpoint version 2",
                id="format_version-2",
            ),
            pytest.param(
                lambda p: p.update(optimizer=None),
                "optimizer must be a JSON object",
                id="optimizer-null",
            ),
            (lambda p: p.update(params=[0.0]), "params is not valid base64: argument should"),
            (lambda p: p.update(params=p["params"][:-2]), "params is not valid base64: Incorrect"),
            (lambda p: p.update(params="*" + p["params"][1:]), "params is not valid base64: Only"),
            (lambda p: edit_floats(p, "params", lambda f: f[:-1]), "params holds"),
            (
                lambda p: edit_floats(p, "params", lambda f: f.__setitem__(-1, np.nan)),
                "params has non-finite values",
            ),
            (lambda p: p.update(vocab_entries=3), "vocab_entries must be a JSON list of strings"),
            pytest.param(
                lambda p: p["param_names"].remove("head/trans"),
                "param_names do not match the model: ['head/trans']",
                id="param_names-missing-name",
            ),
            pytest.param(
                lambda p: p["param_names"].append("bogus"),
                "param_names do not match the model: ['bogus']",
                id="param_names-unknown-name",
            ),
            pytest.param(
                lambda p: p["param_names"].reverse(),
                "param_names do not match the model: the same names, reordered or repeated",
                id="param_names-reordered",
            ),
            MOMENTS["wrong-length"],
            MOMENTS["not-a-string"],
            (lambda p: p["optimizer"].update(step=-1), "optimizer step must be an integer >= 0"),
            (
                lambda p: p["encoder_config"].update(heads=0),
                "encoder_config: heads must be an integer >= 1, got 0",
            ),
            (
                lambda p: p["encoder_config"].update(d_ff=-1),
                "encoder_config: d_ff must be an integer >= 1, got -1",
            ),
            pytest.param(
                lambda p: p["vocab_entries"].append(p["vocab_entries"][-1]),
                "vocab has duplicate entries",
                id="vocab_entries-repeated",
            ),
            pytest.param(
                lambda p: p["scheme_classes"].append(p["scheme_classes"][0]),
                "classes must be nonempty and unique",
                id="scheme_classes-repeated",
            ),
        ],
    )
    def test_malformed_checkpoint_exits_1(self, tmp_path, capsys, trained_model, edit, message):
        payload = json.loads(trained_model.read_text())
        edit(payload)
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(payload))
        assert run("eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "edited.json" in err and message in err
        assert "runtime error" not in err

    @pytest.mark.parametrize(
        "command, case",
        [("predict", case) for case in ("missing", "not-a-string", "wrong-length")]
        + [(command, case) for command in ("train", "compare-heads") for case in MOMENTS],
    )
    def test_malformed_moments_exit_1(self, tmp_path, capsys, trained_model, command, case):
        """eval and predict check the moments' shape only; a resume (--init)
        decodes them, so only there do non-finite values exit 1."""
        edit, message = MOMENTS[case]
        payload = json.loads(trained_model.read_text())
        edit(payload)
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "out"
        if command == "predict":
            lines = tmp_path / "lines.txt"
            lines.write_text("aspirin for pain\n")
            argv = ["predict", "--checkpoint", str(ckpt), "--input", str(lines)]
        else:
            argv = [command, "--init", str(ckpt), "--steps", "1", "--out", str(out)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "edited.json" in err and message in err
        assert "runtime error" not in err
        assert not out.exists()

    def test_eval_does_not_decode_the_moments(self, tmp_path, capsys, corpus_files, trained_model):
        """Non-finite moments, which only a resume reads, leave eval's report as it was."""
        payload = json.loads(trained_model.read_text())
        MOMENTS["non-finite"][0](payload)
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(payload))
        tags, ann = corpus_files
        reports = []
        for name, model in (("edited", ckpt), ("saved", trained_model)):
            out = tmp_path / name
            argv = ["--tags", str(tags), "--annotations", str(ann), "--out", str(out)]
            assert run("eval", "--checkpoint", str(model), *argv) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_malformed_annotation_exits_1(self, tmp_path, capsys, corpus_files):
        tags, ann = corpus_files
        lines = ann.read_text().split("\n")
        record = json.loads(lines[0])
        record["spans"] = [{"start": 0, "cls": "Disease"}]
        lines[0] = json.dumps(record)
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines))
        code = run(
            "train", "--tags", str(tags), "--annotations", str(edited),
            "--steps", "1", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "edited.jsonl line 1:" in err and "missing key 'end'" in err

    def test_unknown_relation_label_exits_1(self, tmp_path, capsys, corpus_files):
        tags, ann = corpus_files
        lines = ann.read_text().split("\n")
        row = next(i for i, line in enumerate(lines) if json.loads(line)["relations"])
        record = json.loads(lines[row])
        record["relations"][0]["label"] = "prevents"
        lines[row] = json.dumps(record)
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(lines))
        code = run(
            "train", "--tags", str(tags), "--annotations", str(edited),
            "--steps", "1", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"edited.jsonl line {row + 1}: relation " in err
        assert "label='prevents') has a label not in" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["annotations", "config", "checkpoint", "set"])
    def test_integer_too_long_to_convert_exits_1(
        self, tmp_path, capsys, corpus_files, trained_model, where
    ):
        """A JSON integer of 5,001 digits is bad input, not a runtime error."""
        big = "1" + "0" * 5000
        tags, ann = corpus_files
        edited = tmp_path / "edited.json"
        argv = ["train", "--tags", str(tags), "--steps", "1", "--out", str(tmp_path / "out")]
        if where == "annotations":
            lines = ann.read_text().split("\n")
            lines[0] = '{"spans": [{"start": ' + big + ', "end": 0, "cls": "Specific"}]}'
            edited.write_text("\n".join(lines))
            argv += ["--annotations", str(edited)]
        elif where == "config":
            edited.write_text('{"train": {"steps": ' + big + "}}")
            argv += ["--config", str(edited)]
        elif where == "checkpoint":
            payload = json.loads(trained_model.read_text())
            payload["optimizer"]["step"] = "BIG"
            edited.write_text(json.dumps(payload).replace('"BIG"', big))
            argv = ["eval", "--checkpoint", str(edited), "--out", str(tmp_path / "out")]
        else:
            argv += ["--set", f"train.steps={big}"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert ("train.steps" if where == "set" else "edited.json") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow on the way there
    def test_divergence_names_learning_rate_and_clip_norm(self, tmp_path, capsys):
        # still exit 2: a run that diverges is a runtime error, not bad input
        code = run(
            "train", "--size", "30", "--steps", "2", "--set", "train.learning_rate=1e300",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite loss at step 1 with learning_rate=1e+300 and clip_norm=1\n" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["train", "pretrain", "fewshot-curve", "compare-heads"])
    def test_a_run_that_fails_leaves_no_output_directory(self, tmp_path, capsys, command):
        out = tmp_path / "new" / "out"
        section = "pretrain" if command == "pretrain" else "train"
        code = run(
            command, "--size", "30", "--steps", "2", "--set", f"{section}.learning_rate=1e300",
            "--out", str(out),
        )
        assert code == 2 and "non-finite loss" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["eval", "train", "compare-heads"])
    @pytest.mark.parametrize("source", ["MODEL", "HEADLESS"])
    def test_relation_names_must_follow_head_kind(
        self, tmp_path, monkeypatch, capsys, failing_inputs, source, command
    ):
        """A checkpoint holds a relation head exactly when its head_kind is
        not null: a trained model without the relation names, or an encoder
        with them, exits 1 at load, before any training or output."""
        payload = json.loads(Path(failing_inputs[source]).read_text())
        d_model, labels = payload["encoder_config"]["d_model"], len(C.RELATION_LABELS)
        size = 2 * d_model * labels + labels  # relation/w and relation/b end each flat row
        grow = source == "HEADLESS"  # add a relation head's names and zero values, or drop them
        names = payload["param_names"]
        payload["param_names"] = names + ["relation/w", "relation/b"] if grow else names[:-2]

        def resize(floats, rows):
            floats = floats.reshape(rows, -1)
            return (np.pad(floats, ((0, 0), (0, size))) if grow else floats[:, :-size]).ravel()

        for section, key, rows in ((payload, "params", 1), (payload["optimizer"], "moments", 2)):
            edit_floats(section, key, lambda floats: resize(floats, rows))
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("train was called"))
        flag = "--checkpoint" if command == "eval" else "--init"
        out = tmp_path / "out"
        assert run(command, flag, str(edited), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "edited.json: param_names do not match the model: ['relation/b', 'relation/w']" in err
        assert list(tmp_path.iterdir()) == [edited]

    def test_unknown_tag_names_the_tag_file(self, tmp_path, capsys):
        tags = tmp_path / "two.tsv"
        tags.write_text("fever\tB-Disease\n\nrash\tO\n")
        assert run("pretrain", "--tags", str(tags), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"error: {tags} line 1: unknown tag 'B-Disease'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--checkpoint", "missing.json"),
            ("train", "--init", "missing.json"),
            ("train", "--set", "train.learning_rate=-1"),
            ("pretrain", "--tags", "missing.tsv"),
            ("fewshot-curve", "--set", "curve.seeds_per_k=0"),
            ("compare-heads", "--init", "missing.json"),
            ("gen-corpus", "--size", "-1"),
            ("gen-corpus", "--set", 'corpus.size="x"'),
            ("train", "--set", "train.steps=true"),
            ("train", "--set", "train.class_balanced=2"),
            ("fewshot-curve", "--set", "curve.seeds_per_k=1.5"),
            ("train", "--set", "encoder.d_model=3.5"),
            ("gen-corpus", "--set", "output_dir=5"),
            ("pretrain", "--steps", "-3"),
            ("pretrain", "--set", "pretrain.learning_rate=-1"),
            ("pretrain", "--set", "pretrain.clip_norm=0"),
            ("pretrain", "--set", "pretrain.mask_prob=2"),
            ("pretrain", "--set", "pretrain.batch_size=0"),
            ("eval", "--checkpoint", ""),
            ("pretrain", "--tags", "."),
            ("train", "--set", "encoder.heads=0"),
            ("pretrain", "--set", "encoder.d_ff=-1"),
            ("train", "--steps", "300", "--tags", "LONG"),
            ("pretrain", "--tags", "LONG"),
            ("eval", "--checkpoint", "MODEL", "--tags", "LONG"),
            ("compare-heads", "--tags", "LONG"),
            ("fewshot-curve", "--tags", "LONG"),
            ("eval", "--checkpoint", "HEADLESS"),
            ("predict", "--input", "in.txt", "--checkpoint", "HEADLESS"),
            ("eval", "--checkpoint", "MODEL", "--tags", "EMPTY", "--split", "test"),
            ("eval", "--checkpoint", "MODEL", "--tags", "FIVE", "--split", "val"),
            ("pretrain", "--tags", "ONE"),
            ("train", "--tags", "EMPTY"),
            ("train", "--config", "BAD_CONFIG"),
            ("train", "--tags", "BAD_TAGS"),
            ("train", "--tags", "TAGS", "--annotations", "BAD_ANN"),
            ("eval", "--checkpoint", "BAD_MODEL"),
            ("predict", "--checkpoint", "MODEL", "--input", "BAD_TEXT"),
            ("train", "--seed", "-1"),
            ("pretrain", "--seed", "-3"),
            ("fewshot-curve", "--seed", "-2"),
            ("gen-corpus", "--corpus-seed", "-1"),
            ("train", "--size", "30", "--steps", "1", "--set", f"train.lambda_re={NO_FLOAT}"),
            ("train", "--size", "30", "--steps", "1", "--set", f"train.learning_rate={NO_FLOAT}"),
            ("pretrain", "--size", "30", "--steps", "1",
             "--set", f"pretrain.learning_rate={NO_FLOAT}"),
            ("train", "--size", "30", "--steps", "1", "--set", f"train.clip_norm={NO_FLOAT}"),
            ("eval", "--checkpoint", "MODEL", "--set", "train.learning_rate=-1"),
            ("eval", "--checkpoint", "MODEL", "--set", "pretrain.mask_prob=7"),
            ("eval", "--checkpoint", "MODEL", "--set", "curve.k_values=[]"),
            ("gen-corpus", "--set", "curve.k_values=[]"),
            ("train", "--size", "30", "--steps", "1", "--set", "curve.k_values=[]"),
            ("pretrain", "--size", "30", "--steps", "1", "--set", "train.head=\"x\""),
            ("eval", "--checkpoint", "MODEL", "--set", "encoder.heads=0"),
            ("train", "--set", "train=1"),
            ("train", "--set", "trainsteps"),
            ("train", "--set", "encoder.dropout_rate=1.0"),
            ("train", "--config", "LIST_CONFIG"),
        ],
    )
    def test_failed_run_creates_nothing(self, tmp_path, monkeypatch, capsys, failing_inputs, argv):
        monkeypatch.chdir(tmp_path)
        argv = [failing_inputs.get(arg, arg) for arg in argv]
        assert run(*argv) == 1
        assert list(tmp_path.iterdir()) == []
        # the error names the missing file or the bad key
        section = "pretrain" if argv[0] == "pretrain" else "train"
        flag_keys = {"--size": "corpus.size", "--corpus-seed": "corpus.seed",
                     "--steps": f"{section}.steps", "--seed": f"{section}.seed"}
        named = flag_keys.get(argv[-2], argv[-1].split("=")[0])
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, number",
        [
            (("train",), 1),
            (("pretrain",), 1),
            (("eval", "--checkpoint", "MODEL"), 60),
            (("eval", "--checkpoint", "MODEL", "--split", "train"), 1),
        ],
    )
    def test_over_long_gold_sentence_is_named(
        self, tmp_path, monkeypatch, capsys, failing_inputs, argv, number
    ):
        """The check covers the sentences a command encodes: pretrain and
        eval --split train see sentence 1, eval of the test split sentence 60."""
        monkeypatch.chdir(tmp_path)
        argv = [failing_inputs.get(arg, arg) for arg in argv]
        assert run(*argv, "--tags", failing_inputs["LONG"]) == 1
        err = capsys.readouterr().err
        assert f"corpus tag file {failing_inputs['LONG']}: sentence {number}: " in err
        assert "exceeds max_len 64" in err and "runtime error" not in err

    @pytest.mark.parametrize(
        "argv, split",
        [
            (("train", "--tags", "ONE"), "train"),
            (("compare-heads", "--tags", "ONE"), "train"),
            (("fewshot-curve", "--tags", "ONE"), "train"),
            (("train", "--size", "1"), "train"),
            (("compare-heads", "--size", "1"), "train"),
            (("fewshot-curve", "--size", "1"), "train"),
            (("compare-heads", "--tags", "FIVE", "--split", "val"), "val"),
        ],
    )
    def test_empty_split_is_named_before_any_work(
        self, tmp_path, monkeypatch, capsys, failing_inputs, argv, split
    ):
        """A fresh model's vocabulary needs a train sentence, and compare-heads
        a sentence in the split it scores; both are checked before the length
        check and before any training."""
        monkeypatch.chdir(tmp_path)
        argv = [failing_inputs.get(arg, arg) for arg in argv]
        assert run(*argv, "--steps", "1") == 1
        source = f"corpus tag file {argv[2]}" if argv[1] == "--tags" else "synthetic corpus"
        err = capsys.readouterr().err
        assert f"{source}: no sentences in split {split!r}" in err
        assert "runtime error" not in err and "exceeds max_len" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("train", "--annotations", "x.jsonl"),
            ("train", "--set", "corpus.annotations=x.jsonl"),
            ("train", "--tags", "", "--annotations", "x.jsonl"),
            ("pretrain", "--annotations", "x.jsonl"),
        ],
    )
    def test_annotations_without_tags_exit_1(self, tmp_path, monkeypatch, capsys, argv):
        """An annotation file describes the sentences of a tag file: without
        one the run fails before any work instead of ignoring it and training
        on the synthetic corpus."""
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--steps", "1", "--out", "out") == 1
        assert capsys.readouterr().err.startswith("error: corpus.annotations ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("gen-corpus", "--size", "1", "--out", "afile"), "output_dir"),
            (("gen-corpus", "--size", "1", "--out", "afile/sub"), "output_dir"),
            (("predict", "--out-file", "afile/x.jsonl"), "--out-file"),
            (("predict", "--out-file", "run"), "--out-file"),
            (("train", "--size", "20", "--steps", "2", "--config", "nul.json"), "output_dir"),
        ],
    )
    def test_output_path_in_the_way_exits_1(
        self, tmp_path, monkeypatch, capsys, trained_model, argv, key
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        # argv cannot carry a NUL character, a config file can
        (tmp_path / "nul.json").write_text(json.dumps({"output_dir": "o\0x"}))
        (tmp_path / "run").mkdir()
        (tmp_path / "in.txt").write_text("aspirin for pain\n")
        if argv[0] == "predict":
            argv += ("--checkpoint", str(trained_model), "--input", "in.txt")
        before = sorted(tmp_path.rglob("*"))
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert key in err and "runtime error" not in err
        assert sorted(tmp_path.rglob("*")) == before


class TestConfigPrecedence:
    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"corpus": {"size": 10}, "train": {"steps": 1}}))
        out = tmp_path / "run"
        assert run(
            "gen-corpus", "--config", str(cfg), "--size", "5", "--out", str(out)
        ) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["corpus"]["size"] == 5
        assert resolved["train"]["steps"] == 1
        assert "output_dir" not in resolved

    def test_set_overrides_file(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"corpus": {"size": 10}}))
        out = tmp_path / "run"
        assert run(
            "gen-corpus", "--config", str(cfg), "--set", "corpus.size=7", "--out", str(out)
        ) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["corpus"]["size"] == 7

    def test_section_set_merges_key_by_key(self, tmp_path):
        out = tmp_path / "run"
        assert run(
            "gen-corpus", "--size", "0", "--set", 'train={"steps": 1}', "--out", str(out)
        ) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["train"] == {**DEFAULT_CONFIG["train"], "steps": 1}

    def test_readme_config_shape_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file shape", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULT_CONFIG


class TestTrainEval:
    def test_train_outputs(self, trained_model):
        out_dir = trained_model.parent
        assert trained_model.exists()
        log = (out_dir / "loss_log.csv").read_text().strip().split("\n")
        assert log[0] == "step,loss,ner_loss,re_loss"
        assert len(log) == 41

    def test_train_does_not_mutate_inputs(self, tmp_path, corpus_files):
        tags, ann = corpus_files
        before = (tags.read_bytes(), ann.read_bytes())
        assert run(
            "train", "--tags", str(tags), "--annotations", str(ann),
            "--steps", "2", "--out", str(tmp_path / "m"),
        ) == 0
        assert (tags.read_bytes(), ann.read_bytes()) == before

    def test_eval_writes_reports(self, tmp_path, corpus_files, trained_model):
        tags, ann = corpus_files
        out = tmp_path / "eval"
        code = run(
            "eval", "--checkpoint", str(trained_model), "--tags", str(tags),
            "--annotations", str(ann), "--split", "test", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "entities" in report and "micro" in report["entities"]
        assert "relations_gold_spans" in report
        md = (out / "report.md").read_text()
        assert md.startswith("| Method | Precision | Recall | F1-Score |")

    def test_eval_segments_each_surface_once(
        self, tmp_path, monkeypatch, corpus_files, trained_model
    ):
        segmented, segment = Counter(), C._segment

        def counting(surface, vocab):
            segmented[surface] += 1
            return segment(surface, vocab)

        monkeypatch.setattr(C, "_segment", counting)
        tags, ann = corpus_files
        code = run(
            "eval", "--checkpoint", str(trained_model), "--tags", str(tags),
            "--annotations", str(ann), "--out", str(tmp_path / "eval"),
        )
        assert code == 0 and segmented and max(segmented.values()) == 1

    def test_train_rerun_byte_identical(self, tmp_path, corpus_files):
        tags, ann = corpus_files
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "train", "--tags", str(tags), "--annotations", str(ann),
                "--steps", "5", "--seed", "2", "--out", str(out),
            ) == 0
        assert read_tree(a) == read_tree(b)


class TestCheckpointEncoderEcho:
    """Under --init or --checkpoint the checkpoint's encoder config governs and
    every encoder.* key is ignored, so resolved_config.json echoes the
    checkpoint's encoder section, not the keys that were set."""

    @pytest.fixture(scope="class")
    def encoder(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("enc")
        assert run("pretrain", "--size", "30", "--steps", "1", "--out", str(out)) == 0
        return out / "encoder.json"

    @staticmethod
    def echoed_and_governing(out: Path, checkpoint: Path) -> tuple[dict, dict]:
        resolved = json.loads((out / "resolved_config.json").read_text())
        governing = json.loads(checkpoint.read_text())["encoder_config"]
        governing.pop("vocab_size")
        return resolved["encoder"], governing

    def test_train_init(self, tmp_path, encoder):
        out = tmp_path / "run"
        argv = ["--size", "30", "--steps", "1", "--init", str(encoder)]
        assert run("train", *argv, "--set", "encoder.d_model=8", "--out", str(out)) == 0
        echoed, governing = self.echoed_and_governing(out, encoder)
        assert echoed == governing and echoed["d_model"] == 32
        model = json.loads((out / "model.json").read_text())["encoder_config"]
        assert model["d_model"] == 32

    def test_eval_checkpoint(self, tmp_path, corpus_files, trained_model):
        tags, ann = corpus_files
        out = tmp_path / "eval"
        argv = ["--checkpoint", str(trained_model), "--tags", str(tags), "--annotations", str(ann)]
        assert run("eval", *argv, "--set", "encoder.max_len=4", "--out", str(out)) == 0
        echoed, governing = self.echoed_and_governing(out, trained_model)
        assert echoed == governing and echoed["max_len"] == 64

    def test_without_a_checkpoint_the_set_keys_are_echoed(self, tmp_path):
        out = tmp_path / "run"
        argv = ["--size", "30", "--steps", "1", "--set", "encoder.d_model=8"]
        assert run("train", *argv, "--out", str(out)) == 0
        echoed, governing = self.echoed_and_governing(out, out / "model.json")
        assert echoed == governing and echoed["d_model"] == 8


class TestPretrain:
    def test_outputs_and_determinism(self, tmp_path, corpus_files):
        tags, ann = corpus_files
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "pretrain", "--tags", str(tags), "--annotations", str(ann),
                "--steps", "5", "--out", str(out),
            ) == 0
        assert read_tree(a) == read_tree(b)
        log = (a / "pretrain_log.csv").read_text().strip().split("\n")
        assert log[0] == "step,loss"
        assert len(log) == 6


# the files each command writes into --out, besides resolved_config.json
OUTPUT_FILES = {
    "gen-corpus": ["annotations.jsonl", "corpus.tsv"],
    "pretrain": ["encoder.json", "pretrain_log.csv"],
    "train": ["loss_log.csv", "model.json"],
    "eval": ["report.json", "report.md"],
    "fewshot-curve": ["curve.csv", "curve_summary.csv"],
    "compare-heads": ["comparison.json", "comparison.md"],
}


@pytest.mark.parametrize("command", list(OUTPUT_FILES))
def test_each_command_writes_exactly_its_files(tmp_path, corpus_files, trained_model, command):
    tags, ann = map(str, corpus_files)
    corpus = ["--tags", tags, "--annotations", ann]
    argv = {
        "gen-corpus": ["--size", "5"],
        "pretrain": [*corpus, "--steps", "1"],
        "train": [*corpus, "--steps", "1"],
        "eval": [*corpus, "--checkpoint", str(trained_model)],
        "fewshot-curve": [
            *corpus, "--steps", "1", "--set", "curve.k_values=[1]", "--set", "curve.seeds_per_k=1",
        ],
        "compare-heads": [*corpus, "--steps", "1"],
    }[command]
    out = tmp_path / "out"
    assert run(command, *argv, "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(OUTPUT_FILES[command] + ["resolved_config.json"])


class TestCompareHeads:
    def test_three_row_table(self, tmp_path, corpus_files):
        tags, ann = corpus_files
        out = tmp_path / "cmp"
        code = run(
            "compare-heads", "--tags", str(tags), "--annotations", str(ann),
            "--steps", "3", "--out", str(out),
        )
        assert code == 0
        lines = (out / "comparison.md").read_text().strip().split("\n")
        assert lines[0] == "| Method | Precision | Recall | F1-Score |"
        assert [line.split("|")[1].strip() for line in lines[2:]] == [
            "crf", "span", "seq2seq",
        ]
        details = json.loads((out / "comparison.json").read_text())
        assert set(details) == {"crf", "span", "seq2seq"}

    def test_init_with_a_head_gives_every_row_a_fresh_head(
        self, tmp_path, monkeypatch, corpus_files, trained_model
    ):
        """A trained crf model as the init: the crf row does not resume its
        head, steps and Adam moments; every row trains a new head for --steps."""
        tags, ann = corpus_files
        trained, call = [], cli.train

        def spy(*args, **kwargs):
            trained.append(call(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(cli, "train", spy)
        code = run(
            "compare-heads", "--tags", str(tags), "--annotations", str(ann),
            "--init", str(trained_model), "--steps", "2", "--out", str(tmp_path / "cmp"),
        )
        assert code == 0
        assert [c.model.head_kind for c in trained] == ["crf", "span", "seq2seq"]
        assert [c.step for c in trained] == [2, 2, 2]


class TestFewshotCurve:
    def test_csv_outputs(self, tmp_path, corpus_files):
        tags, ann = corpus_files
        out = tmp_path / "curve"
        code = run(
            "fewshot-curve", "--tags", str(tags), "--annotations", str(ann),
            "--set", "curve.k_values=[1,2]", "--set", "curve.seeds_per_k=2",
            "--steps", "2", "--out", str(out),
        )
        assert code == 0
        rows = (out / "curve.csv").read_text().strip().split("\n")
        assert rows[0] == "k,seed,precision,recall,f1"
        assert len(rows) == 5
        summary = (out / "curve_summary.csv").read_text().strip().split("\n")
        assert summary[0] == "k,median_f1,min_f1,max_f1"
        assert len(summary) == 3

    def test_corpus_without_entities_exits_1(self, tmp_path, capsys):
        tags = tmp_path / "plain.tsv"
        tags.write_text("fever\tO\nnow\tO\n\n" * 20)
        assert run("fewshot-curve", "--tags", str(tags), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "empty support set for k=1" in err and "runtime error" not in err

    def test_repeated_k_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["--size", "40", "--steps", "2", "--set", "curve.k_values=[1,1]"]
        assert run("fewshot-curve", *argv, "--out", str(out)) == 1
        assert "curve.k_values must be positive and strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_short_support_set_is_reported(self, tmp_path, caplog):
        """One warning per (k, seed) whose support set holds fewer than k
        sentences for some class, naming each such class and its count; the
        run still writes its files and exits 0."""
        out = tmp_path / "o"
        argv = ["--size", "30", "--corpus-seed", "4", "--seed", "0", "--steps", "2"]
        curve = ["--set", "curve.k_values=[2,1000]", "--set", "curve.seeds_per_k=2"]
        assert run("fewshot-curve", *argv, *curve, "--out", str(out)) == 0
        assert len((out / "curve_summary.csv").read_text().splitlines()) == 3
        corpus = generate_synthetic_corpus(30, seed=4)
        expected = []
        for rep in range(2):
            achieved = sample_k_shot(corpus, 1000, rep).achieved
            expected.append(f"k=1000 seed {rep}: fewer than k support sentences for {achieved}")
        warned = [r.getMessage() for r in caplog.records if r.name == "medext.fewshot"]
        assert warned == expected


class TestPredict:
    def test_jsonl_spans(self, tmp_path, trained_model):
        text = tmp_path / "raw.txt"
        text.write_text("the patient presented with influenza during admission\n\n")
        out_file = tmp_path / "pred.jsonl"
        code = run(
            "predict", "--checkpoint", str(trained_model),
            "--input", str(text), "--out-file", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 1  # blank line skipped
        record = json.loads(lines[0])
        assert record["tokens"][0] == "the"
        for span in record["spans"]:
            assert set(span) == {"start", "end", "cls"}

    def test_records_no_tape_and_matches_recording_run(self, tmp_path, monkeypatch, trained_model):
        text = tmp_path / "raw.txt"
        text.write_text("the patient presented with influenza\naspirin treats migraine today\n")
        outputs = []
        for recording in (False, True):
            if recording:
                monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
            T.reset_tape()
            out_file = tmp_path / f"pred-{recording}.jsonl"
            code = run(
                "predict", "--checkpoint", str(trained_model),
                "--input", str(text), "--out-file", str(out_file),
            )
            assert code == 0
            assert bool(T.active_tape().records) == recording
            outputs.append(out_file.read_bytes())
        T.reset_tape()
        assert outputs[0] == outputs[1]

    def test_over_long_line_becomes_error_record(self, tmp_path, capsys, trained_model):
        good = ["the patient presented with influenza", "aspirin treats migraine"]
        long_line = " ".join(["qwerty", "zxcvbn", "poiuyt", "lkjhgf"] * 3)  # 72 subwords
        text = tmp_path / "raw.txt"
        text.write_text(f"{good[0]}\n\n{long_line}\n{good[1]}\n")
        out_file = tmp_path / "pred.jsonl"
        code = run(
            "predict", "--checkpoint", str(trained_model),
            "--input", str(text), "--out-file", str(out_file),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "raw.txt line 3:" in err and "exceeds max_len 64" in err
        records = out_file.read_text().splitlines()
        assert len(records) == 3
        assert json.loads(records[1]) == {
            "line": 3, "error": "sequence length 72 exceeds max_len 64",
        }
        text.write_text("\n".join(good) + "\n")
        assert run(
            "predict", "--checkpoint", str(trained_model),
            "--input", str(text), "--out-file", str(out_file),
        ) == 0
        assert out_file.read_text().splitlines() == [records[0], records[2]]

    def test_lines_end_only_at_newline(self, tmp_path, capsys, trained_model):
        """U+2028 and a form feed inside a line are whitespace between words,
        not line breaks, so the over-long third line is reported as line 3."""
        long_line = " ".join(["qwerty", "zxcvbn", "poiuyt", "lkjhgf"] * 3)  # 72 subwords
        text = tmp_path / "raw.txt"
        text.write_text(
            f"the patient\u2028presented with influenza\naspirin\ftreats migraine\n{long_line}\n",
            encoding="utf-8",
        )
        out_file = tmp_path / "pred.jsonl"
        code = run(
            "predict", "--checkpoint", str(trained_model),
            "--input", str(text), "--out-file", str(out_file),
        )
        assert code == 1
        assert "raw.txt line 3:" in capsys.readouterr().err
        records = [json.loads(r) for r in out_file.read_text(encoding="utf-8").split("\n")[:-1]]
        assert [r.get("tokens") for r in records[:2]] == [
            ["the", "patient", "presented", "with", "influenza"],
            ["aspirin", "treats", "migraine"],
        ]
        assert records[2] == {"line": 3, "error": "sequence length 72 exceeds max_len 64"}

    def test_missing_input_file(self, trained_model):
        assert run("predict", "--checkpoint", str(trained_model), "--input", "/nope.txt") == 1


class TestCollector:
    """eval and predict run with the cyclic collector paused; every command
    leaves it as the caller had it."""

    @pytest.fixture(autouse=True)
    def enabled_after(self):
        yield
        gc.enable()

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Corpora of 60 and 600 sentences, and each one's words as predict input."""
        out = tmp_path_factory.mktemp("sizes")
        for size in (60, 600):
            folder = out / str(size)
            assert run("gen-corpus", "--size", str(size), "--out", str(folder)) == 0
            corpus = load_conll(folder / "corpus.tsv", TagScheme())
            lines = [" ".join(s.surfaces()) for s in corpus.sentences]
            (folder / "lines.txt").write_text("\n".join(lines) + "\n")
        return out

    def commands(self, folder, model, out):
        return {
            "eval": ["eval", "--checkpoint", str(model), "--tags", str(folder / "corpus.tsv"),
                     "--annotations", str(folder / "annotations.jsonl"), "--out", str(out)],
            "predict": ["predict", "--checkpoint", str(model), "--input",
                        str(folder / "lines.txt"), "--out-file", str(out / "predicted.jsonl")],
            "train": ["train", "--tags", str(folder / "corpus.tsv"), "--steps", "1",
                      "--out", str(out)],
        }

    def test_paused_while_eval_and_predict_run(self, tmp_path, monkeypatch, inputs, trained_model):
        seen = {}
        for name in ("evaluate_split", "predict", "train"):
            call = getattr(cli, name)

            def spy(*args, _name=name, _call=call, **kwargs):
                seen[_name] = gc.isenabled()
                return _call(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        for command, argv in self.commands(inputs / "60", trained_model, tmp_path).items():
            assert main(argv) == 0, command
            assert gc.isenabled(), command
        assert seen == {"evaluate_split": False, "predict": False, "train": True}

    def test_enabled_after_exit_1(self, tmp_path, trained_model):
        bad = tmp_path / "bad.tsv"
        bad.write_text("fever\tB-Disease\n")
        argv = ["eval", "--checkpoint", str(trained_model), "--tags", str(bad)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert gc.isenabled()
        assert main(["predict", "--checkpoint", str(trained_model), "--input", "missing"]) == 1
        assert gc.isenabled()

    def test_caller_who_disabled_it_keeps_it_disabled(self, tmp_path, inputs, trained_model):
        gc.disable()
        for command, argv in self.commands(inputs / "60", trained_model, tmp_path).items():
            assert main(argv) == 0, command
            assert not gc.isenabled(), command

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_cyclic_garbage_does_not_grow_with_the_corpus(
        self, tmp_path, inputs, trained_model, command
    ):
        """What a paused command leaves for the collector is bounded: a run
        on 600 sentences leaves as many cyclic objects as one on 60."""
        gc.disable()
        found = []
        for size in (60, 60, 600):  # the first run fills the process's caches
            argv = self.commands(inputs / str(size), trained_model, tmp_path / str(size))
            gc.collect()
            assert main(argv[command]) == 0
            found.append(gc.collect())
        assert found[1] == found[2]

    def test_eval_leaves_only_the_cycles_of_its_two_json_writes(
        self, tmp_path, inputs, trained_model
    ):
        """The cyclic garbage of one eval is the closures of the stdlib JSON
        encoder (``json.encoder._make_iterencode``, which ``indent=2`` selects),
        once for each ``_json``: report.json and resolved_config.json."""
        gc.disable()
        argv = self.commands(inputs / "60", trained_model, tmp_path)["eval"]
        assert main(argv) == 0  # fills the process's caches
        gc.collect()
        cli._json({"f1": [0.5]})
        per_write = gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            assert gc.collect() == 2 * per_write
            functions = [o for o in gc.garbage if inspect.isfunction(o)]
            assert functions and {f.__module__ for f in functions} == {"json.encoder"}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
