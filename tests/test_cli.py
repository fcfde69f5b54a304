"""Command-line behavior: config resolution, commands, artifacts, exit codes."""

import dataclasses
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdscreen
from sdscreen.cli import (
    DEFAULTS,
    gradcheck_cases,
    main,
    resolve_config,
    run_gradchecks,
)
from sdscreen.dataset import Dataset, Subject, load_dataset, read_frames, save_frames
from sdscreen.errors import ConfigError, DataError, NumericError
from sdscreen import trainer
from sdscreen.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from sdscreen.numerics import load_container, write_container
from sdscreen.ras import RasConfig
from sdscreen.settings import build
from sdscreen.synth import SynthConfig
from sdscreen.trainer import TrainConfig, fold_subject_sets

TINY_CONFIG = """\
# reduced geometry for tests
n_subjects = 8
fps = 1
height = 12
width = 12
disagreement_rate = 0.25
time_median_s = 3.0
time_min_s = 2.0
time_max_s = 5.0
clip_len = 4
synth_seed = 0

input_hw = 12
base_channels = 2
feature_dim = 4
hidden1 = 8
hidden2 = 4
blocks = 1
sigma = 4.0
init_seed = 0

epochs = 1
batch_size = 2
lr = 0.01
folds = 2
seed = 0
"""


DEFAULT_CONFIG_TEXT = """\
n_subjects = 200
fps = 25
height = 110
width = 110
disagreement_rate = 0.2
motif_strength = 0.7
time_median_s = 6.0
time_shift = 1.08
time_sigma = 0.35
time_min_s = 2.0
time_max_s = 21.0
noise_sigma = 0.02
synth_seed = 0
input_hw = 110
clip_len = 10
base_channels = 16
feature_dim = 128
hidden1 = 1024
hidden2 = 256
blocks = 5
sigma = 10.0
use_difference = true
use_delta = true
per_block_affinity = false
use_time = true
mode = full
init_seed = 0
epochs = 200
batch_size = 2
lr = 0.001
threshold = 0.5
folds = 5
seed = 0
"""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("cli_data")
    assert main(["synth", "--out", str(out), "--config", config_file]) == 0
    return str(out)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, config_file, data_dir):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["train", "--data", data_dir, "--out", str(out),
                 "--config", config_file])
    assert code == 0
    return out


def test_importing_the_cli_loads_no_executor_module():
    # Only a pool loads concurrent.futures: a desk-geometry run without
    # --jobs never makes one, and the module adds about 0.7 MB.
    src = str(Path(sdscreen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "import sys, sdscreen.cli; "
                           "print('concurrent.futures' in sys.modules)"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_resolve_config_defaults_and_overrides(config_file):
    cfg = resolve_config()
    assert cfg == DEFAULTS
    cfg = resolve_config(config_file, ["epochs=3", "lr=0.5", "use_delta=false"])
    assert cfg["n_subjects"] == 8
    assert cfg["epochs"] == 3
    assert cfg["lr"] == 0.5
    assert cfg["use_delta"] is False


def test_resolve_config_rejects_unknown_and_malformed(config_file):
    with pytest.raises(ConfigError, match="mystery"):
        resolve_config(None, ["mystery=1"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["epochs"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["epochs=soon"])
    with pytest.raises(ConfigError, match="missing"):
        resolve_config("/no/such/file.cfg")


def test_duplicate_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("sigma = 4.0\nepochs = 2\nsigma = 0.01\n")
    with pytest.raises(ConfigError, match="sigma"):
        resolve_config(str(path))
    assert main(["synth", "--out", str(tmp_path / "o"), "--config", str(path)]) == 1
    line = one_error_line(capsys)
    assert "'sigma'" in line and f"{path}:3" in line
    assert main(["synth", "--out", str(tmp_path / "o"),
                 "--set", "lr=0.1", "--set", "epochs=3", "--set", "lr=0.2"]) == 1
    line = one_error_line(capsys)
    assert "'lr'" in line and "--set" in line
    assert not (tmp_path / "o").exists()
    # A --set overriding a key the file gives is no duplicate.
    once = tmp_path / "once.cfg"
    once.write_text("sigma = 4.0\n")
    assert resolve_config(str(once), ["sigma=2.0"])["sigma"] == 2.0


@pytest.mark.parametrize("command, key", [
    ("synth", "synth_seed"), ("train", "seed"), ("train", "init_seed")])
def test_negative_seed_exits_one(command, key, config_file, data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    where = ["--out", str(out)] if command == "synth" else ["--data", data_dir, "--out", str(out)]
    assert main([command, *where, "--config", config_file, "--set", f"{key}=-1"]) == 1
    line = one_error_line(capsys)
    assert "seed must be >= 0" in line and "-1" in line
    assert not out.exists()  # no dataset directory, no config.txt
    # API callers bypass the CLI: each config refuses it when built.
    for cls, name in ((SynthConfig, "seed"), (ModelConfig, "init_seed"), (TrainConfig, "seed")):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            cls(**{name: -1})


def test_every_config_field_is_reached_by_its_key():
    def configs(cfg):
        model = build(ModelConfig, cfg)
        return {"synth": build(SynthConfig, cfg), "model": model,
                "ras": model.ras_config(), "train": build(TrainConfig, cfg)}

    base = configs(resolve_config())
    # The keys not named after their field; every other key reaches the field
    # of its own name in each config that has one (clip_len: synth and model).
    renamed = {"synth_seed": {("synth", "seed")}, "seed": {("train", "seed")},
               "hidden1": {("model", "hidden")}, "hidden2": {("model", "hidden")}}
    reached = set()
    for key, value in DEFAULTS.items():
        # Another valid value: a number doubles, or becomes 1 where it is 0.
        changed = ("mlp" if key == "mode" else not value if isinstance(value, bool)
                   else value * 2 or 1)
        new = configs(resolve_config(None, [f"{key}={changed}"]))
        differ = {(name, f.name) for name, config in new.items()
                  for f in dataclasses.fields(config)
                  if getattr(config, f.name) != getattr(base[name], f.name)}
        expected = renamed.get(key) or {
            (name, key) for name, config in base.items()
            if key in {f.name for f in dataclasses.fields(config)}}
        assert differ == expected, key
        reached |= differ
    assert reached == {(name, f.name) for name, config in base.items()
                       for f in dataclasses.fields(config)}


SUBJECT = dict(subject_id="s0001", label=1, choices=(2,) * 20, times=(3.0,) * 20,
               frame_files=tuple(f"s0001_q{q + 1:02d}.rasf" for q in range(20)))


@pytest.mark.parametrize("cls, kwargs, bad", [
    (SynthConfig, {}, {"n_subjects": 9}),
    (ModelConfig, {}, {"hidden": (1024, 0)}),
    (RasConfig, {}, {"sigma": 0.0}),
    (TrainConfig, {}, {"folds": 1}),
    (Subject, SUBJECT, {"label": 2}),
    (Dataset, {"fps": 5, "height": 8, "width": 8, "subjects": [Subject(**SUBJECT)],
               "root": Path("unused")}, {"subjects": []}),
], ids=["SynthConfig", "ModelConfig", "RasConfig", "TrainConfig", "Subject", "Dataset"])
def test_configs_and_records_refuse_a_bad_value_when_built(cls, kwargs, bad):
    error = DataError if cls in (Subject, Dataset) else ConfigError
    valid = cls(**kwargs)
    with pytest.raises(error):
        cls(**{**kwargs, **bad})
    with pytest.raises(error):
        dataclasses.replace(valid, **bad)


def test_readme_set_flags_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    items = [item for block in blocks for item in re.findall(r"--set\s+(\S+)", block)]
    assert len(items) > 10
    for item in items:
        resolve_config(None, [item])


def test_print_config_roundtrip(config_file, capsys):
    assert main(["synth", "--out", "unused", "--config", config_file,
                 "--print-config"]) == 0
    out = capsys.readouterr().out
    assert "n_subjects = 8" in out
    assert "lr = 0.01" in out
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == len(DEFAULTS)
    # The defaults, in the order config.txt has always been written in.
    assert main(["synth", "--out", "unused", "--print-config"]) == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG_TEXT


def test_synth_reports_cells(data_dir, capsys, config_file, tmp_path):
    assert main(["synth", "--out", str(tmp_path / "d"),
                 "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "wrote 8 subjects" in out
    assert "questionnaire agreement: 6/8" in out


def test_unknown_set_key_exits_one(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--set", "mystery=1"]) == 1


def test_invalid_rate_exits_one(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path),
                 "--set", "disagreement_rate=0.7"])
    assert code == 1
    assert "disagreement_rate" in capsys.readouterr().err


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.mark.parametrize("key", sorted(k for k, v in DEFAULTS.items() if isinstance(v, float)))
def test_nonfinite_float_config_exits_one(key, tmp_path, capsys):
    for raw in ("nan", "inf", "-inf"):
        assert main(["synth", "--out", str(tmp_path / "d"), "--set", f"{key}={raw}"]) == 1
        assert key in one_error_line(capsys)
    assert not (tmp_path / "d").exists()
    # API callers bypass the CLI: each config refuses NaN when built.
    owners = [cls for cls in (SynthConfig, ModelConfig, TrainConfig)
              if key in {f.name for f in dataclasses.fields(cls)}]
    for cls in owners:
        with pytest.raises(ConfigError):
            cls(**{key: float("nan")})
    assert owners


def test_usage_problem_exits_one(capsys):
    assert main(["train"]) == 1  # missing required arguments
    assert main(["no-such-command"]) == 1


def test_train_writes_artifacts(run_dir, capsys):
    assert (run_dir / "fold0.ckpt").is_file()
    assert (run_dir / "fold1.ckpt").is_file()
    assert (run_dir / "fold0_history.csv").is_file()
    assert (run_dir / "training_curves.svg").is_file()
    header = (run_dir / "fold0_history.csv").read_text().splitlines()[0]
    assert header == "epoch,loss,train_acc,val_acc"
    svg = (run_dir / "training_curves.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_train_single_fold_and_ablation(config_file, data_dir, tmp_path, capsys):
    code = main(["train", "--data", data_dir, "--out", str(tmp_path / "ab"),
                 "--config", config_file, "--fold", "0",
                 "--set", "use_time=false", "--set", "use_delta=false"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fold 0:" in out
    assert not (tmp_path / "ab" / "fold1.ckpt").exists()


def test_train_parallel_folds_match_serial(config_file, data_dir, tmp_path, capsys):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["train", "--data", data_dir, "--out", str(serial),
                 "--config", config_file]) == 0
    assert main(["train", "--data", data_dir, "--out", str(parallel),
                 "--config", config_file, "--jobs", "2"]) == 0
    for name in ("fold0.ckpt", "fold1.ckpt", "fold0_history.csv",
                 "fold1_history.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_train_bad_fold_value(config_file, data_dir, tmp_path):
    assert main(["train", "--data", data_dir, "--out", str(tmp_path),
                 "--config", config_file, "--fold", "9"]) == 1
    assert main(["train", "--data", data_dir, "--out", str(tmp_path),
                 "--config", config_file, "--fold", "x"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_train_refuses_jobs_below_one(jobs, config_file, data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--data", data_dir, "--out", str(out), "--config", config_file,
                 "--jobs", jobs]) == 1
    assert "--jobs" in one_error_line(capsys)
    assert not out.exists()  # refused before config.txt is written


@pytest.mark.parametrize("flags, code, says", [
    (["--set", "hidden1=0"], 1, "hidden widths must be >= 1"),
    (["--set", "folds=20"], 1, "cannot split 8 subjects into 20 folds"),
    (["--data", "{tmp}/missing"], 2, "manifest missing"),
    (["--set", "input_hw=22"], 1, "holds 12x12 frames, input_hw is 22"),
    (["--set", "clip_len=8"], 1, "frames, shorter than clip_len 8"),
], ids=["hidden1", "folds", "data", "input_hw", "clip_len"])
def test_refused_train_leaves_no_run_directory(flags, code, says, config_file, data_dir,
                                               tmp_path, capsys):
    out = tmp_path / "run"
    command = ["train", "--data", data_dir, "--out", str(out), "--config", config_file,
               "--fold", "0"]
    assert main(command + [f.format(tmp=tmp_path) for f in flags]) == code
    assert says in one_error_line(capsys)
    assert not out.exists()  # so the corrected command may claim it
    assert main(command) == 0


def test_missing_dataset_exits_two(config_file, tmp_path):
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o"), "--config", config_file]) == 2


@pytest.mark.parametrize("line, says", [
    (b"epochs 2\n", "expected 'key = value', got 'epochs 2'"),
    (b" = 2\n", "empty key"),
    (None, "key '{key}' given twice"),  # the first pair again
    (b"seed = \xff\n", "not UTF-8 text at byte"),
], ids=["no-equals", "empty-key", "repeated-key", "non-utf8"])
@pytest.mark.parametrize("reader", ["config", "run-config", "manifest"])
def test_key_value_grammar_is_one_for_every_file(reader, line, says, data_dir,
                                                 tmp_path, capsys):
    # --config files, a run's config.txt and manifest.txt share one reader.
    key, value = ("format", "sds-manifest") if reader == "manifest" else ("epochs", "2")
    first = f"{key} = {value}\n".encode()
    where, out = tmp_path / "in", tmp_path / "out"
    where.mkdir()
    path, command, code = {
        "config": (where / "bad.cfg", ["synth", "--out", str(out)], 1),
        "run-config": (where / "config.txt", ["eval", "--data", data_dir, "--run", str(where),
                                              "--out", str(out)], 1),
        "manifest": (where / "manifest.txt", ["eval", "--data", str(where),
                                              "--baseline", "sds-sum"], 2),
    }[reader]
    if reader == "config":
        command += ["--config", str(path)]
    path.write_bytes(b"# a comment and a blank line\n\n" + first + (line or first))
    assert main(command) == code
    assert f"{path}:4: {says.format(key=key)}" in one_error_line(capsys)
    assert not out.exists()


def test_key_value_lines_are_counted_at_newlines_only(tmp_path, capsys):
    # A form feed on a line of its own is whitespace, not a line break.
    path = tmp_path / "ff.cfg"
    path.write_bytes(b"epochs = 3\n\x0c\nbogus\n")
    assert main(["synth", "--out", str(tmp_path / "out"), "--config", str(path)]) == 1
    assert f"{path}:3: expected 'key = value', got 'bogus'" in one_error_line(capsys)


@pytest.mark.parametrize("source", ["config", "set", "run-config"])
def test_bad_config_value_names_its_source(source, data_dir, run_dir, tmp_path, capsys):
    out = tmp_path / "out"
    if source == "config":
        path = tmp_path / "bad.cfg"
        path.write_text("# epochs as a word\nepochs = soon\n")
        command, where = ["synth", "--out", str(out), "--config", str(path)], f"{path}:2"
    elif source == "set":
        command, where = ["synth", "--out", str(out), "--set", "epochs=soon"], "--set"
    else:  # a hand-edited config.txt
        edited = tmp_path / "edited"
        shutil.copytree(run_dir, edited)
        path = edited / "config.txt"
        lines = path.read_text().splitlines()
        line = lines.index("epochs = 1")
        lines[line] = "epochs = soon"
        path.write_text("\n".join(lines) + "\n")
        command = ["eval", "--data", data_dir, "--run", str(edited), "--out", str(out)]
        where = f"{path}:{line + 1}"
    assert main(command) == 1
    assert one_error_line(capsys).startswith(f"error: {where}: config key 'epochs': invalid")
    assert not out.exists()


@pytest.mark.parametrize("edit, says", [
    (lambda text: text + "mystery = 1\n", "manifest has unknown keys: ['mystery']"),
    (lambda text: text.replace("format = sds-manifest", "format = other"),
     "not a dataset manifest"),
    (lambda text: text.replace("version = 1", "version = 2"), "unsupported manifest version"),
    (lambda text: text.replace("fps = 1\n", ""), "manifest missing key 'fps'"),
    (lambda text: re.sub(r"subject\.0\.label = \d", "subject.0.label = no", text),
     "manifest subject 0: invalid literal"),
], ids=["unknown-key", "format", "version", "missing-key", "subject"])
def test_manifest_errors_name_the_manifest(edit, says, data_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(data_dir, broken)
    manifest = broken / "manifest.txt"
    manifest.write_text(edit(manifest.read_text()))
    assert main(["eval", "--data", str(broken), "--baseline", "sds-sum"]) == 2
    assert one_error_line(capsys).startswith(f"error: {manifest}: {says}")


def test_train_refuses_a_truncated_frames_payload(config_file, data_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(data_dir, broken)
    frames = broken / load_dataset(broken).subjects[3].frame_files[5]
    frames.write_bytes(frames.read_bytes()[:-7])
    out = tmp_path / "run"
    assert main(["train", "--data", str(broken), "--out", str(out),
                 "--config", config_file]) == 2
    assert f"error: {frames}: frames payload ends at offset" in one_error_line(capsys)
    assert not out.exists()


def test_frames_damaged_after_an_epoch_stop_train_naming_the_file(config_file, data_dir,
                                                                   tmp_path, capsys,
                                                                   monkeypatch):
    def truncate(path):
        path.write_bytes(path.read_bytes()[:-7])

    def shrink(path):  # a well-formed file of another frame size
        save_frames(path, np.ascontiguousarray(read_frames(path)[:, :10, :10]))

    def cut(path):  # a well-formed file too short for one clip
        save_frames(path, np.ascontiguousarray(read_frames(path)[:2]))

    for damage, message in ((truncate, "frames payload ends at offset"),
                            (shrink, "holds 10x10 frames, manifest declares 12x12"),
                            (cut, "holds 2 frames, fewer than the 4")):
        data = tmp_path / damage.__name__ / "data"
        shutil.copytree(data_dir, data)
        train_subjects, _ = fold_subject_sets(load_dataset(data), 2, 0, 0)
        damaged = data / train_subjects[0].frame_files[0]
        save_checkpoint = trainer.save_checkpoint

        def save_then_damage(*args):
            save_checkpoint(*args)
            damage(damaged)

        monkeypatch.setattr(trainer, "save_checkpoint", save_then_damage)
        out = data.parent / "run"
        assert main(["train", "--data", str(data), "--out", str(out), "--config", config_file,
                     "--fold", "0", "--set", "epochs=2"]) == 2
        monkeypatch.undo()
        assert f"error: {damaged}: {message}" in one_error_line(capsys)
        # Epoch 2 read the damaged file; epoch 1's checkpoint is whole.
        params = init_model(build(ModelConfig, resolve_config(config_file)))
        _, _, _, history = load_checkpoint(out / "fold0.ckpt", params)
        assert [r.epoch for r in history] == [1]


def test_eval_refuses_a_video_shorter_than_one_clip_as_train_does(config_file, data_dir,
                                                                 run_dir, tmp_path, capsys):
    # A frames file rewritten after training keeps the manifest, and with it
    # the digest eval compares, so only the frame check can stop it.
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    short = data / load_dataset(data).subjects[0].frame_files[0]
    save_frames(short, np.ascontiguousarray(read_frames(short)[:2]))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "retrain"),
                 "--config", config_file]) == 1
    refused = one_error_line(capsys)
    assert "a question video of 2 frames, shorter than clip_len 4" in refused
    assert main(["eval", "--data", str(data), "--run", str(run_dir),
                 "--out", str(tmp_path / "report")]) == 1
    assert one_error_line(capsys) == refused
    assert not (tmp_path / "report").exists()


def test_a_validation_fold_of_one_label_is_named_before_it_trains(config_file, data_dir,
                                                                   tmp_path, capsys):
    """The split does not stratify: with 4 folds of the tiny set, seed 0 gives
    folds that validate on one label, whose sensitivity or specificity and AUC
    come out NaN. train and eval --run each name them in one warning line a
    fold; seed 2 gives none."""
    dataset = load_dataset(data_dir)
    warned = []
    for fold in range(4):
        labels = {s.label for s in fold_subject_sets(dataset, 4, 0, fold)[1]}
        if labels == {0}:
            warned.append(f"warning: fold {fold} validates on subjects of label 0 only, "
                          "so its sensitivity and auc will be nan")
        elif labels == {1}:
            warned.append(f"warning: fold {fold} validates on subjects of label 1 only, "
                          "so its specificity and auc will be nan")
    assert warned
    capsys.readouterr()
    out = tmp_path / "one_label"
    assert main(["train", "--data", data_dir, "--out", str(out), "--config", config_file,
                 "--set", "folds=4", "--set", "seed=0"]) == 0
    trained = capsys.readouterr()
    assert trained.err.splitlines() == warned
    assert "nan +/- nan" in trained.out
    assert main(["eval", "--data", data_dir, "--run", str(out)]) == 0
    assert capsys.readouterr() == trained

    assert main(["train", "--data", data_dir, "--out", str(tmp_path / "balanced"),
                 "--config", config_file, "--set", "folds=4", "--set", "seed=2"]) == 0
    assert capsys.readouterr().err == ""


def test_synth_refuses_a_clip_len_no_model_accepts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--set", "clip_len=5"]) == 1
    assert "clip_len must be an even integer >= 2, got 5" in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_output_path_that_is_a_file_exits_two(command, config_file, data_dir, run_dir,
                                              tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    source = ["--config", config_file] if command == "train" else ["--run", str(run_dir)]
    assert main([command, "--data", data_dir, "--out", str(taken), *source]) == 2
    assert f"File exists: '{taken}'" in one_error_line(capsys)


def test_corrupt_manifest_exits_two(data_dir, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(data_dir, broken)
    manifest = broken / "manifest.txt"
    manifest.write_text(manifest.read_text() + "mystery=1\n")
    assert main(["eval", "--data", str(broken), "--baseline", "sds-sum"]) == 2


def test_non_utf8_manifest_exits_two(data_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(data_dir, broken)
    manifest = broken / "manifest.txt"
    manifest.write_bytes(b"\xff" + manifest.read_bytes()[1:])  # the 'f' of "format"
    assert main(["eval", "--data", str(broken), "--baseline", "sds-sum"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]


def test_non_utf8_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"epochs = 2\nseed = \xff\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        resolve_config(str(path))
    assert main(["synth", "--out", str(tmp_path / "o"), "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0]


@pytest.mark.parametrize("history", [
    [[1.0, 0.69, 0.5, 0.5], [3.0, 0.68, 0.5, 0.5]],
    [[1.0, 0.69, 0.5]],
    [[1.0, np.nan, 0.5, 0.5]],
], ids=["gap", "wrong-shape", "nan-loss"])
def test_resume_with_damaged_history_exits_two(history, config_file, data_dir,
                                               run_dir, tmp_path, capsys):
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    ckpt = resumed / "fold0.ckpt"
    with open(ckpt, "rb") as f:
        entries = load_container(f)
    entries["meta.history"] = np.array(history)
    with open(ckpt, "wb") as f:
        write_container(f, entries)
    assert main(["train", "--data", data_dir, "--out", str(resumed), "--fold", "0",
                 "--resume", "--set", "epochs=3", "--config", config_file]) == 2
    assert "meta.history" in one_error_line(capsys)


def test_resume_starts_a_fold_without_a_checkpoint_at_epoch_one(config_file, data_dir,
                                                                run_dir, tmp_path, capsys):
    # A run killed in fold 1's first epoch leaves fold 0's checkpoint and none of fold 1's.
    out = tmp_path / "run"
    assert main(["train", "--data", data_dir, "--out", str(out), "--fold", "0",
                 "--config", config_file]) == 0
    assert main(["train", "--data", data_dir, "--out", str(out), "--resume",
                 "--config", config_file]) == 0
    for name in ("fold0.ckpt", "fold0_history.csv", "fold1.ckpt", "fold1_history.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()
    capsys.readouterr()
    damaged = out / "fold1.ckpt"
    damaged.write_bytes(damaged.read_bytes()[:-9])
    assert main(["train", "--data", data_dir, "--out", str(out), "--fold", "1", "--resume",
                 "--config", config_file]) == 2
    assert one_error_line(capsys).startswith("error: ")


def test_resume_under_another_ablation_exits_one(config_file, data_dir, run_dir,
                                                  tmp_path, capsys):
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    assert main(["train", "--data", data_dir, "--out", str(resumed), "--fold", "0",
                 "--resume", "--set", "epochs=2", "--set", "use_delta=false",
                 "--config", config_file]) == 1
    assert "use_delta differ" in one_error_line(capsys)
    assert (resumed / "fold0.ckpt").read_bytes() == (run_dir / "fold0.ckpt").read_bytes()


def test_resume_under_another_seed_exits_one(config_file, data_dir, run_dir,
                                             tmp_path, capsys):
    # Another seed is another split: resuming would mix two splits in one history.
    resumed = tmp_path / "resumed"
    shutil.copytree(run_dir, resumed)
    assert main(["train", "--data", data_dir, "--out", str(resumed), "--resume",
                 "--set", "seed=7", "--set", "epochs=2", "--config", config_file]) == 1
    assert "seed differ" in one_error_line(capsys)
    for name in ("fold0.ckpt", "fold1.ckpt", "config.txt"):
        assert (resumed / name).read_bytes() == (run_dir / name).read_bytes()


def test_train_other_fold_under_another_sigma_exits_one(config_file, data_dir,
                                                        tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", data_dir, "--out", str(out), "--fold", "0",
                 "--config", config_file]) == 0
    capsys.readouterr()
    assert main(["train", "--data", data_dir, "--out", str(out), "--fold", "1",
                 "--config", config_file, "--set", "sigma=5.0"]) == 1
    assert "sigma differ" in one_error_line(capsys)
    assert not (out / "fold1.ckpt").exists()


def test_zero_epochs_over_a_trained_fold_rewrites_its_checkpoint(config_file, data_dir,
                                                                 run_dir, tmp_path, capsys):
    # Checkpoint, history and printed metrics all describe the fresh weights.
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    shutil.copytree(run_dir, over)
    zero = ["--fold", "0", "--config", config_file, "--set", "epochs=0"]
    assert main(["train", "--data", data_dir, "--out", str(over), *zero]) == 0
    trained = capsys.readouterr().out
    assert (over / "fold0_history.csv").read_text() == "epoch,loss,train_acc,val_acc\n"
    assert main(["eval", "--data", data_dir, "--run", str(over), "--fold", "0",
                 "--out", str(tmp_path / "report")]) == 0
    assert capsys.readouterr().out == trained
    assert main(["train", "--data", data_dir, "--out", str(fresh), *zero]) == 0
    assert (over / "fold0.ckpt").read_bytes() == (fresh / "fold0.ckpt").read_bytes()


def test_zero_epochs_over_a_trained_run_leaves_no_earlier_curves(config_file, data_dir,
                                                                 run_dir, tmp_path):
    over = tmp_path / "over"
    shutil.copytree(run_dir, over)
    assert (over / "training_curves.svg").is_file()
    assert main(["train", "--data", data_dir, "--out", str(over), "--config", config_file,
                 "--set", "epochs=0"]) == 0
    assert not (over / "training_curves.svg").exists()  # every history is a header now
    assert main(["train", "--data", data_dir, "--out", str(over), "--config", config_file,
                 "--resume"]) == 0
    assert (over / "training_curves.svg").read_bytes() == \
        (run_dir / "training_curves.svg").read_bytes()


def test_eval_reproduces_train_metrics(config_file, data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", data_dir, "--out", str(out),
                 "--config", config_file, "--set", "seed=3", "--set", "sigma=2.0"]) == 0
    trained = capsys.readouterr().out
    assert main(["eval", "--data", data_dir, "--run", str(out)]) == 0
    assert capsys.readouterr().out == trained


def test_print_config_equals_run_config(config_file, data_dir, run_dir, capsys):
    assert main(["train", "--data", data_dir, "--out", "unused",
                 "--config", config_file, "--print-config"]) == 0
    assert capsys.readouterr().out == (run_dir / "config.txt").read_text()


def test_eval_under_another_model_config_exits_one(data_dir, run_dir, tmp_path, capsys):
    edited = tmp_path / "edited"
    shutil.copytree(run_dir, edited)
    config = edited / "config.txt"
    text = config.read_text()
    assert "sigma = 4.0\n" in text and "use_time = true\n" in text
    config.write_text(text.replace("sigma = 4.0\n", "sigma = 0.01\n")
                      .replace("use_time = true\n", "use_time = false\n"))
    assert main(["eval", "--data", data_dir, "--run", str(edited),
                 "--out", str(tmp_path / "report")]) == 1
    assert "sigma, use_time differ" in one_error_line(capsys)
    assert not (tmp_path / "report").exists()


def test_eval_under_a_negative_seed_exits_one(data_dir, run_dir, tmp_path, capsys):
    edited = tmp_path / "edited"
    shutil.copytree(run_dir, edited)
    config = edited / "config.txt"
    text = config.read_text()
    assert "\nseed = 0\n" in text
    config.write_text(text.replace("\nseed = 0\n", "\nseed = -1\n"))
    assert main(["eval", "--data", data_dir, "--run", str(edited),
                 "--out", str(tmp_path / "report")]) == 1
    assert "seed must be >= 0" in one_error_line(capsys)
    assert not (tmp_path / "report").exists()


def test_eval_without_run_config_exits_two(data_dir, run_dir, tmp_path, capsys):
    bare = tmp_path / "bare"
    shutil.copytree(run_dir, bare)
    (bare / "config.txt").unlink()
    assert main(["eval", "--data", data_dir, "--run", str(bare)]) == 2
    assert "config.txt" in one_error_line(capsys)
    assert not (bare / "metrics.csv").exists()


def test_resume_without_run_config_exits_two(config_file, data_dir, run_dir,
                                             tmp_path, capsys):
    # Written from the flags, it could contradict the checkpoints it resumes.
    bare = tmp_path / "bare"
    shutil.copytree(run_dir, bare)
    (bare / "config.txt").unlink()
    assert main(["train", "--data", data_dir, "--out", str(bare), "--resume",
                 "--set", "epochs=2", "--config", config_file]) == 2
    assert "config.txt" in one_error_line(capsys)
    assert not (bare / "config.txt").exists()
    assert (bare / "fold0.ckpt").read_bytes() == (run_dir / "fold0.ckpt").read_bytes()


@pytest.fixture(scope="module")
def other_data_dir(tmp_path_factory, config_file):
    """The tiny set with another synth seed: the same subject ids, other subjects."""
    out = tmp_path_factory.mktemp("cli_other_data")
    assert main(["synth", "--out", str(out), "--config", config_file,
                 "--set", "synth_seed=1"]) == 0
    return str(out)


def manifest_sha256(data: str) -> str:
    return hashlib.sha256((Path(data) / "manifest.txt").read_bytes()).hexdigest()


def test_eval_on_another_dataset_exits_two(data_dir, other_data_dir, run_dir, tmp_path, capsys):
    trained, other = manifest_sha256(data_dir), manifest_sha256(other_data_dir)
    assert trained != other
    assert [s.subject_id for s in load_dataset(data_dir).subjects] == \
        [s.subject_id for s in load_dataset(other_data_dir).subjects]
    capsys.readouterr()
    assert main(["eval", "--data", other_data_dir, "--run", str(run_dir),
                 "--out", str(tmp_path / "report")]) == 2
    line = one_error_line(capsys)
    assert trained in line and other in line
    assert not (tmp_path / "report").exists()
    assert (run_dir / "dataset.txt").read_text() == f"manifest_sha256 = {trained}\n"


def test_train_into_a_run_of_another_dataset_exits_two(config_file, other_data_dir, run_dir,
                                                      tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    before = {p.name: p.read_bytes() for p in copy.iterdir()}
    assert main(["train", "--data", other_data_dir, "--out", str(copy), "--resume",
                 "--config", config_file]) == 2
    assert manifest_sha256(other_data_dir) in one_error_line(capsys)
    assert {p.name: p.read_bytes() for p in copy.iterdir()} == before


@pytest.mark.parametrize("record", [None, b"manifest = x\n", b"manifest_sha256 = \xff\n"],
                         ids=["missing", "other-key", "not-utf8"])
def test_eval_with_a_missing_or_damaged_dataset_record_exits_two(record, data_dir, run_dir,
                                                                tmp_path, capsys):
    bare = tmp_path / "bare"
    shutil.copytree(run_dir, bare)
    if record is None:
        (bare / "dataset.txt").unlink()
    else:
        (bare / "dataset.txt").write_bytes(record)
    assert main(["eval", "--data", data_dir, "--run", str(bare)]) == 2
    assert "dataset.txt" in one_error_line(capsys)
    assert not (bare / "metrics.csv").exists()


def main_or_fail(argv):
    """main(argv); a KeyboardInterrupt that escapes fails the test instead of
    ending the test session."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


def interrupt_after_first_save(path, params, m, v, t, history):
    save_checkpoint(path, params, m, v, t, history)
    raise KeyboardInterrupt  # Ctrl-C right after the first epoch's save


def test_interrupted_train_exits_130_saying_resume_continues(config_file, data_dir,
                                                             tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    command = ["train", "--data", data_dir, "--out", str(out), "--config", config_file]
    monkeypatch.setattr(trainer, "save_checkpoint", interrupt_after_first_save)
    assert main_or_fail(command + ["--set", "epochs=2"]) == 130
    assert "--resume" in one_error_line(capsys)
    monkeypatch.undo()
    assert (out / "fold0.ckpt").is_file() and not (out / "fold1.ckpt").exists()
    assert main(command + ["--set", "epochs=2", "--resume"]) == 0


def test_interrupted_synth_exits_130(tmp_path, monkeypatch, capsys):
    from sdscreen import cli

    def interrupted(config, out):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "generate", interrupted)
    assert main_or_fail(["synth", "--out", str(tmp_path / "d")]) == 130
    assert one_error_line(capsys) == "error: interrupted"


def exit_in_fold_zero(dataset, model_cfg, train_cfg, fold, out_dir, resume):
    if fold == 0:
        os._exit(70)  # as abrupt as the OOM killer's SIGKILL: no exception, no cleanup
    return trainer.run_fold(dataset, model_cfg, train_cfg, fold, out_dir, resume)


def fail_in_fold_zero(dataset, model_cfg, train_cfg, fold, out_dir, resume):
    if fold == 0:
        raise NumericError("fold 0 diverged")
    return trainer.run_fold(dataset, model_cfg, train_cfg, fold, out_dir, resume)


# Eight folds over two workers: the pool hands at most five folds to its
# workers and their queue at once, so the last fold is still waiting when
# fold 0 ends.
EIGHT_FOLDS = ["--jobs", "2", "--set", "folds=8"]


def error_line_after_eight_fold_warnings(capsys) -> str:
    """The one error line of an EIGHT_FOLDS run. Each of its folds validates
    on one subject, so one label, and train names each in a warning first."""
    *warnings, error = capsys.readouterr().err.splitlines()
    assert [w.split(" validates on ")[0] for w in warnings] == \
        [f"warning: fold {fold}" for fold in range(8)]
    assert error.startswith("error:"), error
    return error


def test_dead_fold_process_exits_four_naming_the_fold(config_file, data_dir, tmp_path,
                                                      monkeypatch, capsys):
    from sdscreen import cli

    monkeypatch.setattr(cli, "run_fold", exit_in_fold_zero)
    out = tmp_path / "run"
    assert main(["train", "--data", data_dir, "--out", str(out), "--config", config_file,
                 *EIGHT_FOLDS]) == 4
    line = error_line_after_eight_fold_warnings(capsys)
    assert "fold 0" in line and "--resume" in line
    assert not (out / "fold7.ckpt").exists()


def test_first_fold_error_cancels_the_waiting_folds(config_file, data_dir, tmp_path,
                                                    monkeypatch, capsys):
    from sdscreen import cli

    monkeypatch.setattr(cli, "run_fold", fail_in_fold_zero)
    out = tmp_path / "run"
    assert main(["train", "--data", data_dir, "--out", str(out), "--config", config_file,
                 *EIGHT_FOLDS]) == 3
    assert "fold 0 diverged" in error_line_after_eight_fold_warnings(capsys)
    assert not (out / "fold7.ckpt").exists()


def test_numeric_failure_exits_three(monkeypatch, tmp_path):
    from sdscreen import cli

    def boom(args):
        raise NumericError("diverged")

    monkeypatch.setattr(cli, "cmd_synth", boom)
    assert cli.main(["synth", "--out", str(tmp_path)]) == 3


def test_eval_baseline_report(data_dir, capsys):
    assert main(["eval", "--data", data_dir, "--baseline", "sds-sum"]) == 0
    out = capsys.readouterr().out
    assert "questionnaire-sum baseline" in out
    assert "accuracy: 0.7500" in out  # 8 subjects, 2 disagreements


def test_eval_requires_run_or_baseline(data_dir):
    assert main(["eval", "--data", data_dir]) == 1


def test_eval_writes_reports(data_dir, run_dir, tmp_path, capsys):
    report = tmp_path / "report"
    code = main(["eval", "--data", data_dir, "--run", str(run_dir),
                 "--out", str(report)])
    assert code == 0
    metrics = (report / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "fold,accuracy,sensitivity,specificity,auc"
    assert metrics[-2].startswith("mean,")
    assert metrics[-1].startswith("sd,")
    roc = (report / "roc.csv").read_text().splitlines()
    assert roc[0] == "threshold,fpr,tpr"
    assert (report / "roc.svg").read_text().startswith("<svg")
    assert "accuracy" in capsys.readouterr().out


def test_single_class_eval_removes_earlier_roc_files(config_file, data_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train", "--data", data_dir, "--out", str(run), "--config", config_file,
                 "--set", "folds=4", "--set", "epochs=0"]) == 0
    assert main(["eval", "--data", data_dir, "--run", str(run)]) == 0
    assert (run / "roc.csv").is_file() and (run / "roc.svg").is_file()
    dataset = load_dataset(data_dir)
    one_class = next(k for k in range(4)
                     if len({s.label for s in fold_subject_sets(dataset, 4, 0, k)[1]}) == 1)
    assert main(["eval", "--data", data_dir, "--run", str(run),
                 "--fold", str(one_class)]) == 0
    assert (run / "metrics.csv").read_text().splitlines()[1].startswith(f"{one_class},")
    assert not (run / "roc.csv").exists() and not (run / "roc.svg").exists()


def test_eval_missing_checkpoint_exits_two(data_dir, run_dir, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    shutil.copy(run_dir / "config.txt", empty)
    shutil.copy(run_dir / "dataset.txt", empty)
    assert main(["eval", "--data", data_dir, "--run", str(empty)]) == 2
    assert "checkpoint missing" in one_error_line(capsys)


def test_gradcheck_takes_no_settings_flags(monkeypatch, capsys):
    from sdscreen import cli

    def never(*args, **kwargs):
        raise AssertionError("a gradient check ran")

    monkeypatch.setattr(cli, "run_gradchecks", never)
    for flags in (["--set", "x=1"], ["--print-config"], ["--config", "any.cfg"]):
        assert main(["gradcheck", *flags]) == 1
        assert "unrecognized arguments" in one_error_line(capsys)


def test_gradcheck_case_names():
    names = [name for name, _ in gradcheck_cases()]
    assert names == ["encoder-reduced", "attention-stack", "fusion-head",
                     "composed-loss"]


def test_composed_gradcheck_case_runs_attention_over_three_clips(monkeypatch):
    # At M = 1 a block returns its input, and at M = 2 difference mode is a
    # no-op, so only M >= 3 checks the gradient of the omegas' attention.
    from sdscreen import ras

    clips = []

    def counting_block(states, *args):
        clips.append(states.shape[0])
        return real_block(states, *args)

    real_block = ras.ras_block
    monkeypatch.setattr(ras, "ras_block", counting_block)
    fn, _ = dict(gradcheck_cases())["composed-loss"]()
    fn()
    assert max(clips) >= 3


def test_run_gradchecks_flags_wrong_gradient():
    from sdscreen.numerics import Tensor
    from sdscreen.numerics.tensor import _finish

    def broken_case():
        x = Tensor(np.array(1.5), requires_grad=True)

        def bad_double(t):
            def bwd(g):
                if t.requires_grad:
                    t.accumulate_grad(3.0 * g)
            return _finish("bad_double", t.data * 2.0, (t,), bwd)

        return (lambda: bad_double(x)), [x]

    def good_case():
        x = Tensor(np.array(2.0), requires_grad=True)
        from sdscreen.numerics import mul

        return (lambda: mul(x, x)), [x]

    results = run_gradchecks([("broken", broken_case), ("fine", good_case)])
    assert [(n, ok) for n, ok, _, _ in results] == [("broken", False), ("fine", True)]
    assert "gradcheck failed" in results[0][2]
