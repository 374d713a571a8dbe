import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from handspd import classify, cli, data, gradcheck, network, optim
from handspd.errors import HandSpdError, InvalidInput, NumericalError
from handspd.network import NetworkConfig
from handspd.optim import TrainConfig

from archives import claimed, edit_npz
from dhg import synth_dhg_tree, write_dhg_tree
from toy import TOY_CONFIG, TOY_FLAGS, toy_checkpoint


def run_cli(*argv):
    return cli.main(list(argv))


def _failure(capsys, *argv):
    """Exit code and stderr of a failing command run through ``cli.main``,
    and the error the command raises when run without it."""
    code = run_cli(*argv)
    err = capsys.readouterr().err
    with pytest.raises(HandSpdError) as exc:
        cli.COMMANDS[argv[0]](cli.make_parser().parse_args(list(argv)))
    for value in exc.value.where.values():
        assert str(value) in err
    return code, err, exc.value


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    """Data flags over a synth cache of 4 classes x 6 trials of 8 frames:
    trials 0-3 train and 4-5 test."""
    path = tmp_path_factory.mktemp("toy") / "cache.npz"
    assert run_cli("synth", "--classes", "4", "--per-class", "6", "--length", "8", "--out", str(path)) == 0
    return ["--cache", str(path), "--per-class", "4"]


def _rows(command, flag, values, exits):
    return [(command, flag, value, exit) for value, exit in zip(values, exits, strict=True)]


REALS = ("-1", "0", "1e-300", "1e300", "1e308", "1.7e308")
INTS = ("-1", "0", "1")
HUGE = str(10**18)
# (command, flag, value, exit code) for every numeric flag of train, svm,
# synth and gradcheck, and extract's and pipeline's --per-class.  A valid
# gradcheck seed runs the whole check, so it is left out; so is HUGE where a
# count loops (--epochs, --instances) or a test of its own holds it.
NUMERIC_FLAGS = [
    *(("train", flag, value, 2) for flag in ("--eps", "--lambda-reg", "--lr") for value in ("nan", "inf")),
    *_rows("svm", "--svm-c", ("nan", "inf", "1e-320"), (2, 2, 2)),
    *_rows("svm", "--svm-tol", ("nan", "inf"), (2, 2)),
    *_rows("train", "--eps", REALS, (2, 2, 0, 0, 0, 0)),
    *_rows("train", "--lambda-reg", REALS, (2, 0, 0, 0, 1, 1)),
    *_rows("train", "--lr", REALS, (2, 2, 0, 1, 1, 1)),
    *_rows("svm", "--svm-c", REALS, (2, 2, 0, 0, 2, 2)),
    *_rows("svm", "--svm-tol", REALS, (2, 2, 0, 0, 0, 0)),
    *_rows("synth", "--noise", REALS, (2, 0, 0, 0, 2, 2)),
    *_rows("train", "--d1", INTS, (2, 2, 0)),
    *_rows("train", "--levels", (*INTS, HUGE), (2, 2, 0, 2)),
    *_rows("train", "--length", (*INTS, HUGE), (2, 2, 2, 2)),
    *_rows("train", "--classes", (*INTS, HUGE), (2, 2, 2, 2)),
    *_rows("train", "--epochs", INTS, (2, 2, 0)),
    *_rows("train", "--batch-size", (*INTS, HUGE), (2, 2, 0, 0)),
    *_rows("train", "--seed", (*INTS, HUGE), (2, 0, 0, 0)),
    *_rows("train", "--per-class", (*INTS, HUGE), (2, 2, 0, 0)),
    *_rows("synth", "--classes", (*INTS, HUGE), (2, 2, 0, 2)),
    *_rows("synth", "--per-class", INTS, (2, 2, 0)),
    *_rows("synth", "--length", (*INTS, HUGE), (2, 2, 2, 2)),
    *_rows("synth", "--seed", (*INTS, HUGE), (2, 0, 0, 0)),
    *_rows("svm", "--seed", ("-1", HUGE), (2, 0)),
    *_rows("extract", "--per-class", (HUGE,), (2,)),
    *_rows("pipeline", "--per-class", (HUGE,), (2,)),
    *_rows("gradcheck", "--instances", ("-1", "0"), (2, 2)),
    *_rows("gradcheck", "--seed", ("-1",), (2,)),
]
# The setting each flag's error message names, hyphens read as underscores.
SETTING = {
    "--eps": "eps", "--lambda-reg": "lambda_reg", "--lr": "learning_rate", "--svm-c": "C=", "--svm-tol": "tol=",
    "--noise": "noise_sigma", "--d1": "d1", "--levels": "n_T", "--length": "length", "--classes": "classes",
    "--epochs": "epochs", "--batch-size": "batch_size", "--seed": "seed", "--per-class": "per_class",
    "--instances": "n_instances",
}


class TestArgumentHandling:
    def test_no_data_source_is_config_error(self, tmp_path):
        code = run_cli("train", "--out-dir", str(tmp_path), *TOY_FLAGS)
        assert code == cli.EXIT_CONFIG

    def test_two_data_sources_is_config_error(self, tmp_path):
        code = run_cli(
            "train", "--data", str(tmp_path), "--cache", "x.npz", "--out-dir", str(tmp_path), *TOY_FLAGS
        )
        assert code == cli.EXIT_CONFIG

    def test_nonexistent_checkpoint_path(self, tmp_path, toy_data):
        code = run_cli("pipeline", *toy_data, "--checkpoint", str(tmp_path / "no.npz"),
                       "--out-dir", str(tmp_path))
        assert code == cli.EXIT_CONFIG

    def test_checkpoint_cut_in_its_header_is_config_error(self, tmp_path, capsys, toy_data):
        # Cut inside the first member's header: the archive lost its directory.
        path = toy_checkpoint(tmp_path / "cut.npz")
        path.write_bytes(path.read_bytes()[:20])
        code = run_cli("extract", *toy_data, "--checkpoint", str(path), "--out", str(tmp_path / "f.npz"))
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not an npz archive" in err and f"[path {path}]" in err

    def test_one_frame_length_is_config_error_naming_the_setting(self, tmp_path, capsys, toy_data):
        # data.resample builds no one-frame sequence, so the network config rejects the length.
        code = run_cli("train", *toy_data, "--length", "1", "--levels", "1", "--out-dir", str(tmp_path / "out"))
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: sequence length must be in [2, 10000], got 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--d1", "1000000"], ["--levels", "10000", "--length", "10000"]])
    def test_network_past_the_parameter_bound_is_config_error_before_any_work(self, flags, tmp_path, capsys,
                                                                            toy_data, monkeypatch):
        # Either network's spatial weights alone would need terabytes or more.
        def unreachable(*args):
            raise AssertionError("the data was read")

        monkeypatch.setattr(cli, "_load_sequences", unreachable)
        assert run_cli("train", *toy_data, *flags, "--out-dir", str(tmp_path / "out")) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: the network has ") and f"more than MAX_PARAMS {network.MAX_PARAMS}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, expected", NUMERIC_FLAGS)
    def test_numeric_flag_keeps_the_exit_code_contract(self, command, flag, value, expected, tmp_path, capsys,
                                                       toy_data):
        # Exit 0 completes, exit 1 names its layer, and exit 2 names the
        # setting and its value before anything is written.  NaN fails every
        # ordered comparison, so each check must be written to reject it.
        out = tmp_path / "out"
        argv = {"train": ["train", *toy_data, *_flags("train", tmp_path)],
                "extract": ["extract", *toy_data, *_flags("extract", tmp_path), "--out", str(out)],
                "pipeline": ["pipeline", *toy_data, *_flags("pipeline", tmp_path)],
                "svm": ["svm", "--features", str(_features(tmp_path / "f.npz")), "--out", str(out)],
                "synth": ["synth", "--classes", "1", "--per-class", "1", "--length", "8", "--out", str(out)],
                "gradcheck": ["gradcheck"]}[command] + [flag, value]
        if expected == cli.EXIT_NUMERICAL:
            code, err, exc = _failure(capsys, *argv)
            assert code == expected and err.startswith("numerical failure: ") and "layer" in exc.where
            return
        assert run_cli(*argv) == expected
        captured = capsys.readouterr()
        if expected == cli.EXIT_OK:
            assert out.exists()
            return
        # The train error names the --per-class flag, the library ones the parameter.
        assert captured.err.startswith("error: ") and SETTING[flag] in captured.err.replace("-", "_")
        assert (value if value.lstrip("-").isdigit() else str(float(value))) in captured.err
        assert captured.out == "" and not out.exists()

    def test_flags_set_every_field_and_the_dataclasses_default_the_rest(self):
        # Flags are the only source of train's settings; the dataclass defaults the rest.
        args = cli.make_parser().parse_args([
            "train", "--out-dir", "x", "--classes", "4", "--d1", "2", "--levels", "2", "--length", "8",
            "--eps", "0.5", "--lambda-reg", "0.25", "--batch-size", "4", "--lr", "0.125", "--epochs", "3",
            "--seed", "7",
        ])
        assert cli._configure(NetworkConfig, args) == NetworkConfig(
            d1=2, n_T=2, n_F=8, eps=0.5, lambda_reg=0.25, n_classes=4
        )
        assert cli._configure(TrainConfig, args) == TrainConfig(
            batch_size=4, learning_rate=0.125, epochs=3, seed=7
        )
        args = cli.make_parser().parse_args(["train", "--out-dir", "x"])
        assert cli._configure(NetworkConfig, args) == NetworkConfig()
        assert cli._configure(TrainConfig, args) == TrainConfig()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--svm-c", "nan"), ("--svm-tol", "inf")])
    def test_pipeline_checks_the_svm_settings_before_any_work(self, flag, value, tmp_path, capsys, toy_data):
        out_dir = tmp_path / "eval"
        assert run_cli("pipeline", *toy_data, "--checkpoint", str(toy_checkpoint(tmp_path / "ck.npz")),
                       "--out-dir", str(out_dir), flag, value) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out_dir / "train_features.npz").exists() and not (out_dir / "test_features.npz").exists()

    def test_config_file_option_is_gone(self, tmp_path, capsys, toy_data):
        ini = tmp_path / "run.ini"
        ini.write_text("[network]\nd1 = 2\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", str(ini), "train", *toy_data, "--out-dir", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert "handspd: error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", [["extract", "--out", "features.npz"], ["pipeline", "--out-dir", "eval"]],
        ids=["extract", "pipeline"],
    )
    def test_network_flags_rejected_where_the_checkpoint_decides(self, command, capsys, toy_data):
        # extract and pipeline take the network configuration from the checkpoint.
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, *toy_data, "--checkpoint", "model.npz", "--length", "8")
        assert exc.value.code == 2
        assert "unrecognized arguments: --length 8" in capsys.readouterr().err


def _features(path, **change):
    rng = np.random.default_rng(0)
    arrays = {"features": rng.standard_normal((6, 3)), "labels": np.repeat([1, 2], 3), "n_classes": np.array([2])}
    data.write_npz(path, **{**arrays, **change})
    return path


def _flags(command, tmp):
    """The flags besides the data flags that ``command`` needs to run the
    toy network, writing under ``tmp``."""
    if command == "train":
        return [*TOY_FLAGS, "--epochs", "1", "--batch-size", "4", "--out-dir", str(tmp / "out")]
    checkpoint = str(toy_checkpoint(tmp / "net.npz"))
    if command == "extract":
        return ["--checkpoint", checkpoint, "--out", str(tmp / "f.npz")]
    return ["--checkpoint", checkpoint, "--out-dir", str(tmp / "out")]


def _model(path):
    """A model for ``_features``' 2 classes of 3 features."""
    classify.save_model(path, classify.SvmModel(weights=np.ones((2, 3))))
    return path


def _cache(path):
    data.save_cache(path, data.synth_generate(1, 2, length=8))
    return path


def _npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(3.0))


NOT_NPZ = {"junk": lambda p: p.write_bytes(b"not an archive\x00\x01"),
           "empty": lambda p: p.write_bytes(b""), "npy": _npy,
           "binary-format": lambda p: p.write_bytes(b"SPDN" + b"\x00" * 64)}


def _reading(flag, path, tmp, toy=None, **features):
    """The command line that reads ``path`` through ``flag``; a checkpoint
    is read with the data flags ``toy``, and a model is evaluated on
    ``_features(**features)``."""
    if flag == "--features":
        return ["svm", "--features", str(path), "--out", str(tmp / "m.npz")]
    if flag == "--cache":
        return ["train", "--cache", str(path), *TOY_FLAGS, "--out-dir", str(tmp / "out")]
    if flag == "--checkpoint":
        return ["extract", *toy, "--checkpoint", str(path), "--out", str(tmp / "f.npz")]
    return ["eval", "--model", str(path), "--features", str(_features(tmp / "f.npz", **features)),
            "--report-dir", str(tmp / "report")]


def _not_npz(kind, flag):
    def setup(tmp, toy):
        bad = tmp / "bad.npz"
        NOT_NPZ[kind](bad)
        return _reading(flag, bad, tmp, toy), bad
    return setup


def _huge_cache(tmp, toy):
    path = _cache(tmp / "cache.npz")
    return _reading("--cache", edit_npz(path, meta=claimed((2**40, 5), "<i8")), tmp), path


def _overflowing(flag):
    """``train`` on 2 classes x 3 trials of 5 frames whose coordinates
    alternate +-1.5e308: finite, but their differences overflow when
    resampled to 9 frames.  The error names the data source."""
    def setup(tmp, toy):
        frames = np.where(np.arange(5)[:, None, None] % 2, -1.5e308, 1.5e308) * np.ones((5, 22, 3))
        if flag == "--cache":
            source = tmp / "c.npz"
            data.save_cache(source, [data.GestureSequence(frames, g, trial=t) for g in (1, 2) for t in range(3)])
        else:
            source = tmp / "dhg"
            write_dhg_tree(source, [(g, 1, s, 1, frames) for g in (1, 2) for s in (1, 2, 3)], test_subjects=(3,))
        return ["train", flag, str(source), "--per-class", "2", "--classes", "2", "--epochs", "1", "--length", "9",
                "--out-dir", str(tmp / "out")], source
    return setup


def _one_nan(path, name):
    """Rewrite array ``name`` of the archive at ``path`` with its first value NaN."""
    with np.load(path) as archive:
        array = archive[name].copy()
    array.flat[0] = np.nan
    return edit_npz(path, **{name: array})


# Each case builds its files in a temporary directory, given the toy data
# flags, and returns the command line and the path the error must name.
FILE_FAULTS = {
    "missing-features": lambda t, toy: (["svm", "--features", str(t / "no.npz"), "--out", str(t / "m.npz")],
                                   t / "no.npz"),
    "synth-out-under-missing-dir": lambda t, toy: (["synth", "--classes", "2", "--per-class", "1", "--length", "8",
                                               "--out", str(t / "absent" / "c.npz")], t / "absent" / "c.npz"),
    "svm-out-under-missing-dir": lambda t, toy: (["svm", "--features", str(_features(t / "f.npz")),
                                             "--out", str(t / "absent" / "m.npz")], t / "absent" / "m.npz"),
    "model-is-a-directory": lambda t, toy: (["eval", "--model", str(t), "--features", str(_features(t / "f.npz")),
                                        "--report-dir", str(t / "report")], t),
    "checkpoint-is-a-directory": lambda t, toy: (["extract", *toy, "--checkpoint", str(t),
                                             "--out", str(t / "f.npz")], t),
    "out-dir-is-a-file": lambda t, toy: (["train", *toy, *TOY_FLAGS, "--out-dir", str(_features(t / "f.npz"))],
                                    t / "f.npz"),
    **{f"{kind}-{flag[2:]}": _not_npz(kind, flag)
       for kind in NOT_NPZ for flag in ("--features", "--cache", "--checkpoint", "--model")},
    "empty-n_classes": lambda t, toy: (_reading("--features", _features(t / "f.npz", n_classes=np.array([], int)), t),
                                  t / "f.npz"),
    "labels-for-other-rows": lambda t, toy: (_reading("--features", _features(t / "f.npz", labels=np.ones(5, int)), t),
                                        t / "f.npz"),
    "huge-features": lambda t, toy: (_reading("--features", edit_npz(_features(t / "f.npz"),
                                                                 features=claimed((2**40, 3))), t), t / "f.npz"),
    "huge-cache": _huge_cache,
    "nan-eps-checkpoint": lambda t, toy: (_reading("--checkpoint", edit_npz(toy_checkpoint(t / "c.npz"),
                                                                          eps=np.array(np.nan)), t, toy), t / "c.npz"),
    "one-joint-finger-checkpoint": lambda t, toy: (_reading("--checkpoint", edit_npz(
        toy_checkpoint(t / "c.npz"), joints_per_finger=np.array(1)), t, toy), t / "c.npz"),
    "nan-feature": lambda t, toy: (_reading("--features", _one_nan(_features(t / "f.npz"), "features"), t),
                              t / "f.npz"),
    "zero-width-features": lambda t, toy: (_reading("--features", _features(t / "f.npz", features=np.zeros((6, 0))), t),
                                      t / "f.npz"),
    "feature-row-norm-overflows": lambda t, toy: (_reading("--features", _features(
        t / "f.npz", features=np.full((6, 3), 1e200)), t), t / "f.npz"),
    "nan-model-weight": lambda t, toy: (_reading("--model", _one_nan(_model(t / "m.npz"), "weights"), t),
                                   t / "m.npz"),
    "nan-conv-checkpoint": lambda t, toy: (_reading("--checkpoint", _one_nan(toy_checkpoint(t / "c.npz"), "conv"), t,
                                                    toy), t / "c.npz"),
    "nan-spat-checkpoint": lambda t, toy: (_reading("--checkpoint", _one_nan(toy_checkpoint(t / "c.npz"), "spat"), t,
                                                    toy), t / "c.npz"),
    "features-of-another-dim": lambda t, toy: (_reading("--model", _model(t / "m.npz"), t,
                                                        features=np.zeros((6, 4))), t / "f.npz"),
    "label-outside-the-model": lambda t, toy: (_reading("--model", _model(t / "m.npz"), t,
                                                        labels=np.array([1, 1, 1, 2, 2, 9])), t / "f.npz"),
    "label-outside-n_classes": lambda t, toy: (_reading("--features", _features(t / "f.npz",
                                                                             labels=np.array([1, 1, 1, 2, 2, 9])), t),
                                          t / "f.npz"),
    "one-class-to-fit": lambda t, toy: (_reading("--features", _features(t / "f.npz", labels=np.ones(6, int)), t),
                                   t / "f.npz"),
    "length-past-its-bound-checkpoint": lambda t, toy: (_reading("--checkpoint", edit_npz(
        toy_checkpoint(t / "c.npz"), n_F=np.array(data.MAX_FRAMES + 1)), t, toy), t / "c.npz"),
    "classes-past-their-bound-features": lambda t, toy: (_reading("--features", _features(
        t / "f.npz", n_classes=np.array([network.MAX_CLASSES + 1])), t), t / "f.npz"),
    "coordinates-overflow-when-resampled-cache": _overflowing("--cache"),
    "coordinates-overflow-when-resampled-data": _overflowing("--data"),
    "cache-split-left-empty": lambda t, toy: ([*_reading("--cache", _cache(t / "c.npz"), t), "--per-class", "0"],
                                         t / "c.npz"),
}


class TestFileFaults:
    @pytest.mark.parametrize("case", FILE_FAULTS)
    def test_exits_2_naming_the_path(self, case, tmp_path, capsys, toy_data):
        argv, path = FILE_FAULTS[case](tmp_path, toy_data)
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("frames", [
        np.full((5, 22, 3), "1.0"), np.arange(5.0), np.zeros((1, 22, 3)), np.full((5, 22, 3), np.inf),
    ], ids=["string", "rank-1", "one-frame", "non-finite"])
    def test_cache_frames_a_sequence_cannot_take_name_the_array(self, frames, tmp_path, capsys):
        path = edit_npz(_cache(tmp_path / "cache.npz"), frames_00001=frames)
        code, err, exc = _failure(capsys, *_reading("--cache", path, tmp_path))
        assert code == cli.EXIT_CONFIG and isinstance(exc, InvalidInput)
        assert exc.where == {"path": str(path), "array": "frames_00001"}
        assert err.startswith("error: ") and err.rstrip().endswith(f"[path {path}, array frames_00001]")

    @pytest.mark.parametrize("command, joints_per_finger", [("extract", 10**6 + 4), ("extract", 3), ("pipeline", 3)])
    def test_checkpoint_whose_hand_does_not_fit_the_sequences_exits_2_naming_it(
            self, command, joints_per_finger, tmp_path, capsys, toy_data):
        # Before the hand's graph is built: at 10**6 + 4 joints per finger
        # it would not fit in memory.
        checkpoint = edit_npz(toy_checkpoint(tmp_path / "c.npz"), joints_per_finger=np.array(joints_per_finger))
        argv = _flags(command, tmp_path)
        argv[argv.index("--checkpoint") + 1] = str(checkpoint)
        code, err, exc = _failure(capsys, command, *toy_data, *argv)
        hand = 2 + 5 * joints_per_finger
        assert code == cli.EXIT_CONFIG and f"a sequence of 22 joints for a hand of {hand}" in err
        assert exc.where == {"path": str(checkpoint)}
        assert not (tmp_path / "out").exists() and not (tmp_path / "f.npz").exists()

    def test_cache_whose_sequences_do_not_fit_the_hand_stops_train_naming_it(self, tmp_path, capsys):
        cache = tmp_path / "c.npz"
        data.save_cache(cache, [dataclasses.replace(s, frames=s.frames[:, :17])
                                for s in data.synth_generate(2, 2, length=8)])
        code, err, exc = _failure(capsys, "train", "--cache", str(cache), *_flags("train", tmp_path))
        assert code == cli.EXIT_CONFIG and "a sequence of 17 joints for a hand of 22" in err
        assert exc.where == {"path": str(cache)}
        assert not (tmp_path / "out").exists()

    def test_oserror_without_a_path_is_not_a_file_fault(self, tmp_path, monkeypatch):
        # A failed fork, say, carries no filename and is re-raised.
        def fail(*args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(classify, "svm_train", fail)
        with pytest.raises(BlockingIOError):
            run_cli("svm", "--features", str(_features(tmp_path / "f.npz")), "--out", str(tmp_path / "m.npz"))


class TestGradcheckCommand:
    def test_passes_on_a_small_subset(self, capsys):
        code = run_cli("gradcheck", "--instances", "2", "--layer", "half_vec", "--layer", "graph_conv")
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "half_vec" in out and "PASS" in out

    def test_help_lists_every_registered_layer(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("gradcheck", "--help")
        out = capsys.readouterr().out
        assert all(name in out for name in gradcheck.LAYERS)

    def test_frame_log_layer(self, capsys):
        code = run_cli("gradcheck", "--instances", "1", "--layer", "frame_log")
        assert code == cli.EXIT_OK
        assert "frame_log" in capsys.readouterr().out

    def test_unknown_layer_is_config_error(self, capsys):
        code = run_cli("gradcheck", "--layer", "reeig_log")
        assert code == cli.EXIT_CONFIG
        assert "frame_log" in capsys.readouterr().err


def _run_child(*argv, address_space=None):
    """``python -m handspd.cli *argv`` in a child process, which imports the
    package from where this process found it, installed or not.  An
    ``address_space`` in bytes is the child's RLIMIT_AS, set before it
    imports numpy and at one BLAS thread, whose buffers then do not grow
    with the core count; this process keeps its own limit."""
    paths = [str(Path(cli.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    command = ["-m", "handspd.cli"]
    if address_space is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"
        command = ["-c", f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({address_space},) * 2);"
                   " from handspd.cli import main; sys.exit(main(sys.argv[1:]))"]
    return subprocess.run([sys.executable, *command, *argv], capture_output=True, text=True, timeout=120, env=env)


class TestSynthCommand:
    @pytest.mark.parametrize("flag, value", [*(("--length", str(n)) for n in (-3, 0, 1, data.MAX_FRAMES + 1)),
                                             *(("--noise", x) for x in ("nan", "inf", "-1", "1e308"))])
    def test_setting_outside_its_bounds_is_config_error(self, flag, value, tmp_path, capsys):
        out = tmp_path / "c.npz"
        flags = {"--classes": "1", "--per-class": "1", "--length": "8", flag: value, "--out": str(out)}
        assert run_cli("synth", *[word for pair in flags.items() for word in pair]) == cli.EXIT_CONFIG
        bound = {"--length": f"length must be in [2, {data.MAX_FRAMES}], got {value}",
                 "--noise": f"noise_sigma must be >= 0 and finite, got {float(value)}"}[flag]
        if value == "1e308":  # finite, but the noise it scales overflows a coordinate
            bound = "gesture coordinates contain non-finite values at noise_sigma 1e+308"
        assert capsys.readouterr().err == f"error: {bound}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, bound", [
        (["--length", "20000000", "--per-class", "1", "--classes", "1"], f"[2, {data.MAX_FRAMES}], got 20000000"),
        (["--per-class", "3000000"], f"frames, more than MAX_SYNTH_FRAMES {data.MAX_SYNTH_FRAMES}"),
    ], ids=["length", "per-class"])
    def test_too_many_frames_is_config_error_before_any_allocation(self, flags, bound, tmp_path):
        # Either would take gigabytes or more, so the child runs under a 2 GB
        # address-space limit: a generator that allocated before it checked
        # would end in a MemoryError there.
        out = tmp_path / "c.npz"
        proc = _run_child("synth", *flags, "--out", str(out), address_space=2 << 30)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("error: ") and bound in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_writes_loadable_cache(self, tmp_path):
        out = tmp_path / "cache.npz"
        argv = ["synth", "--classes", "3", "--per-class", "2", "--length", "8"]
        assert run_cli(*argv, "--out", str(out)) == cli.EXIT_OK
        seqs = data.load_cache(out)
        assert len(seqs) == 6
        assert seqs[0].frames.shape == (8, 22, 3)
        # A flag left out is the library's default: the same settings given
        # as flags, or the library called through _configure, write the same bytes.
        assert run_cli(*argv, "--noise", "0.01", "--seed", "0", "--out", str(tmp_path / "given.npz")) == cli.EXIT_OK
        args = cli.make_parser().parse_args([*argv, "--out", "unused.npz"])
        data.save_cache(tmp_path / "direct.npz", cli._configure(data.synth_generate, args))
        for name in ("given.npz", "direct.npz"):
            assert (tmp_path / name).read_bytes() == out.read_bytes()


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, toy_data):
    out_dir = tmp_path_factory.mktemp("train_out")
    code = run_cli(
        "train", *toy_data, *TOY_FLAGS,
        "--epochs", "2", "--batch-size", "4", "--lr", "0.01",
        "--out-dir", str(out_dir),
    )
    assert code == cli.EXIT_OK
    return out_dir


class TestEndToEndCommands:
    def test_train_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint_final.npz").is_file()
        assert (trained_dir / "metrics.csv").is_file()
        text = (trained_dir / "metrics.csv").read_text()
        assert text.startswith("epoch,mean_loss,train_accuracy,wall_seconds")
        assert len(text.strip().splitlines()) == 3  # header + 2 epochs

    def test_pipeline(self, trained_dir, tmp_path, capsys, toy_data):
        out_dir = tmp_path / "pipe"
        code = run_cli(
            "pipeline", *toy_data,
            "--checkpoint", str(trained_dir / "checkpoint_final.npz"),
            "--out-dir", str(out_dir), "--svm-c", "1.0",
        )
        assert code == cli.EXIT_OK
        for name in ("train_features.npz", "test_features.npz", "svm_model.npz", "confusion.csv", "report.csv"):
            assert (out_dir / name).is_file()
        assert "accuracy" in capsys.readouterr().out
        # extract's format: 4 classes x 4 train and x 2 test sequences.
        for name, rows in (("train_features.npz", 16), ("test_features.npz", 8)):
            features, labels, n_classes = cli._read_features(out_dir / name)
            assert features.shape[0] == labels.shape[0] == rows and n_classes == 4

    def test_svm_and_eval_on_pipeline_features_reproduce_its_outputs(self, trained_dir, tmp_path, toy_data):
        pipe, staged = tmp_path / "pipe", tmp_path / "staged"
        assert run_cli("pipeline", *toy_data, "--checkpoint", str(trained_dir / "checkpoint_final.npz"),
                       "--out-dir", str(pipe)) == cli.EXIT_OK
        staged.mkdir()
        assert run_cli("svm", "--features", str(pipe / "train_features.npz"),
                       "--out", str(staged / "svm_model.npz")) == cli.EXIT_OK
        assert run_cli("eval", "--model", str(staged / "svm_model.npz"), "--features",
                       str(pipe / "test_features.npz"), "--report-dir", str(staged)) == cli.EXIT_OK
        for name in ("svm_model.npz", "confusion.csv", "report.csv"):
            assert (staged / name).read_bytes() == (pipe / name).read_bytes()

    def test_extract_svm_eval_chain(self, trained_dir, tmp_path, toy_data):
        feats = tmp_path / "features.npz"
        code = run_cli(
            "extract", *toy_data,
            "--checkpoint", str(trained_dir / "checkpoint_final.npz"),
            "--split", "train", "--out", str(feats),
        )
        assert code == cli.EXIT_OK
        with np.load(feats) as blob:
            assert blob["features"].shape[0] == 16
            assert blob["labels"].min() == 1

        model_path = tmp_path / "model.npz"
        assert run_cli("svm", "--features", str(feats), "--out", str(model_path)) == cli.EXIT_OK
        # A flag left out is SvmConfig's default: the same settings as flags write the same bytes.
        args = cli.make_parser().parse_args(["svm", "--features", str(feats), "--out", str(model_path)])
        assert cli._configure(classify.SvmConfig, args) == classify.SvmConfig()
        given = tmp_path / "given.npz"
        assert run_cli("svm", "--features", str(feats), "--out", str(given), "--svm-c", "1.0",
                       "--svm-tol", "0.1", "--seed", "0") == cli.EXIT_OK
        assert given.read_bytes() == model_path.read_bytes()

        report_dir = tmp_path / "report"
        code = run_cli("eval", "--model", str(model_path), "--features", str(feats),
                       "--report-dir", str(report_dir))
        assert code == cli.EXIT_OK
        assert (report_dir / "confusion.csv").is_file()
        accuracy = float((report_dir / "report.csv").read_text().strip().splitlines()[1])
        assert 0.0 <= accuracy <= 100.0

    def test_pipeline_from_cache(self, trained_dir, tmp_path):
        cache = tmp_path / "cache.npz"
        assert run_cli("synth", "--classes", "4", "--per-class", "2",
                       "--length", "8", "--out", str(cache)) == cli.EXIT_OK
        out_dir = tmp_path / "pipe_cache"
        code = run_cli(
            "pipeline", "--cache", str(cache), "--per-class", "1",
            "--checkpoint", str(trained_dir / "checkpoint_final.npz"),
            "--out-dir", str(out_dir),
        )
        assert code == cli.EXIT_OK
        assert (out_dir / "report.csv").is_file()
        # 4 classes x trial 0 train, 4 classes x trial 1 test.
        for name in ("train_features.npz", "test_features.npz"):
            features, labels, _ = cli._read_features(out_dir / name)
            assert features.shape[0] == 4 and sorted(labels) == [1, 2, 3, 4]

    def test_train_on_a_synth_cache_is_training_on_synth_generate(self, tmp_path):
        cache, out_dir = tmp_path / "cache.npz", tmp_path / "run"
        assert run_cli("synth", "--classes", "3", "--per-class", "6", "--noise", "0.02", "--seed", "5",
                       "--length", "8", "--out", str(cache)) == cli.EXIT_OK
        assert run_cli("train", "--cache", str(cache), "--per-class", "4", "--classes", "3", "--d1", "2",
                       "--levels", "2", "--length", "8", "--epochs", "2", "--batch-size", "4",
                       "--out-dir", str(out_dir)) == cli.EXIT_OK
        cfg = NetworkConfig(d1=2, n_T=2, n_F=8, n_classes=3)
        sequences = data.synth_generate(6, 3, 0.02, 5, length=8)
        params, _ = optim.train([s for s in sequences if s.trial < 4], cfg, TrainConfig(epochs=2, batch_size=4))
        network.save_checkpoint(tmp_path / "direct.npz", params, cfg)
        assert (tmp_path / "direct.npz").read_bytes() == (out_dir / "checkpoint_final.npz").read_bytes()

    def test_every_stage_writes_the_path_it_is_given(self, tmp_path):
        # No suffix is appended, so each stage reads what the one before wrote.
        cache, out_dir, model = tmp_path / "cache", tmp_path / "run", tmp_path / "model"
        assert run_cli("synth", "--classes", "4", "--per-class", "2", "--length", "8",
                       "--out", str(cache)) == cli.EXIT_OK
        assert run_cli("train", "--cache", str(cache), "--per-class", "1", *TOY_FLAGS, "--epochs", "1",
                       "--batch-size", "4", "--out-dir", str(out_dir)) == cli.EXIT_OK
        features = [tmp_path / "features", tmp_path / "again"]
        for path in features:
            assert run_cli("extract", "--cache", str(cache), "--per-class", "1", "--split", "train",
                           "--checkpoint", str(out_dir / "checkpoint_final.npz"), "--out", str(path)) == cli.EXIT_OK
        assert features[0].read_bytes() == features[1].read_bytes()
        assert run_cli("svm", "--features", str(features[0]), "--out", str(model)) == cli.EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["again", "cache", "features", "model", "run"]

    def test_svm_warns_about_unconverged_classes(self, trained_dir, tmp_path, capsys, monkeypatch, toy_data):
        feats = tmp_path / "features.npz"
        code = run_cli(
            "extract", *toy_data,
            "--checkpoint", str(trained_dir / "checkpoint_final.npz"),
            "--split", "train", "--out", str(feats),
        )
        assert code == cli.EXIT_OK
        capsys.readouterr()
        train = classify.svm_train
        monkeypatch.setattr(classify, "svm_train", lambda *a, **k: train(*a, **{**k, "tol": 1e-12}))
        monkeypatch.setattr(classify, "MAX_PASSES", 1)
        code = run_cli("svm", "--features", str(feats), "--out", str(tmp_path / "model.npz"))
        assert code == cli.EXIT_OK
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "did not converge for classes 1 (1 passes), 2 (1 passes), 3 (1 passes), 4 (1 passes)" in err

    def test_eval_warns_about_unconverged_classes_in_the_model(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((12, 4))
        labels = np.repeat([1, 2, 3], 4)
        feats = tmp_path / "features.npz"
        data.write_npz(feats, features=features, labels=labels, n_classes=np.array([3]))
        monkeypatch.setattr(classify, "MAX_PASSES", 2)
        model = classify.svm_train(features, labels, tol=1e-12)
        model.converged[1] = True
        classify.save_model(tmp_path / "model.npz", model)
        code = run_cli("eval", "--model", str(tmp_path / "model.npz"), "--features", str(feats),
                       "--report-dir", str(tmp_path / "report"))
        assert code == cli.EXIT_OK
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "did not converge for classes 1 (2 passes), 3 (2 passes)" in err

    @staticmethod
    def _train_failure(tmp_path, capsys, scale):
        """``train`` on a cache whose finger 3 joints of frame 5 are scaled by
        ``scale`` in every sequence: its exit code, stderr and error."""
        sequences = data.synth_generate(2, 4, 0.01, 0, length=8)
        for seq in sequences:
            seq.frames[4, 10:14] *= scale
        cache = tmp_path / "huge.npz"
        data.save_cache(cache, sequences)
        code, err, exc = _failure(capsys, "train", "--cache", str(cache), "--per-class", "1", *TOY_FLAGS,
                                  "--epochs", "1", "--batch-size", "4", "--out-dir", str(tmp_path / "out"))
        assert code == cli.EXIT_NUMERICAL and err.startswith("numerical failure: ")
        return exc

    def test_overflowing_coordinates_exit_numerical(self, tmp_path, capsys):
        # The frame Gram overflows: one typed error, and no overflow warning first.
        exc = self._train_failure(tmp_path, capsys, 1e160)
        assert isinstance(exc, NumericalError)
        assert str(exc) == "matrix is not finite [layer frame_log(gram), finger 3, frame 5]"

    def test_huge_coordinates_exit_numerical_at_the_frame_log(self, tmp_path, capsys):
        # The frame Gram stays finite, but h(l) overflows at its largest eigenvalue.
        exc = self._train_failure(tmp_path, capsys, 1e154)
        assert isinstance(exc, NumericalError) and exc.args[0] == "spectral function undefined"
        assert exc.where.pop("eigenvalue") > 1e300
        assert exc.where == {"layer": "frame_log(gram)", "finger": 3, "frame": 5}

    def test_bad_stiefel_step_exits_numerical_naming_finger_and_range(self, tmp_path, capsys, monkeypatch, toy_data):
        # TOY_FLAGS: 5 fingers x 3 ranges, [(1, 8), (1, 4), (5, 8)], so spat
        # weight 8 (1-based) is finger 3's range (1, 4).
        loss_and_backward = network.loss_and_backward

        def nan_weight_8(*args, **kwargs):
            loss, grads, logits = loss_and_backward(*args, **kwargs)
            grads.spat[7, 0, 0] = np.nan
            return loss, grads, logits

        monkeypatch.setattr(network, "loss_and_backward", nan_weight_8)
        code, err, exc = _failure(capsys, "train", *toy_data, *TOY_FLAGS, "--epochs", "1",
                                  "--out-dir", str(tmp_path / "out"))
        assert code == cli.EXIT_NUMERICAL and isinstance(exc, NumericalError)
        assert exc.args[0] == "input is not finite"
        assert exc.where == {"layer": "stiefel_step(spat)", "finger": 3, "range": (1, 4), "matrix": 8}
        assert err.rstrip().endswith("[layer stiefel_step(spat), finger 3, range (1, 4), matrix 8]")


@pytest.fixture(scope="module")
def dhg_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("dhg")
    synth_dhg_tree(root)
    return root


class TestDhgData:
    """``--data`` on a DHG-shaped tree of synth gestures 1-4 at both fingers,
    6 and 11 frames long: subjects 1-2 train and subject 3 tests."""

    @pytest.mark.parametrize("classes", [14, 28])
    def test_train_and_pipeline_read_the_tree(self, classes, dhg_root, tmp_path):
        run, pipe = tmp_path / "run", tmp_path / "pipe"
        assert run_cli("train", "--data", str(dhg_root), "--d1", "2", "--levels", "2", "--length", "8",
                       "--classes", str(classes), "--epochs", "1", "--batch-size", "4",
                       "--out-dir", str(run)) == cli.EXIT_OK
        assert run_cli("pipeline", "--data", str(dhg_root), "--checkpoint", str(run / "checkpoint_final.npz"),
                       "--out-dir", str(pipe)) == cli.EXIT_OK
        # Rows follow the split files' sorted (gesture, finger, subject) keys.
        for name, subjects in (("train_features.npz", (1, 2)), ("test_features.npz", (3,))):
            _, labels, n_classes = cli._read_features(pipe / name)
            keys = [(g, f) for g in range(1, 5) for f in (1, 2) for _ in subjects]
            assert n_classes == classes
            assert labels.tolist() == [g if classes == 14 else 2 * (g - 1) + f for g, f in keys]

    @pytest.mark.parametrize("fault", ["non-finite", "short-line"])
    def test_bad_skeleton_file_exits_2_naming_it(self, fault, tmp_path, capsys):
        bad = synth_dhg_tree(tmp_path / "dhg")[4]  # gesture 2, finger 1, subject 2: train split
        lines = bad.read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(" "):] if fault == "non-finite" else "1.0 2.0"
        bad.write_text("\n".join(lines) + "\n")
        code, err, exc = _failure(capsys, "train", "--data", str(tmp_path / "dhg"), *TOY_FLAGS,
                                  "--out-dir", str(tmp_path / "out"))
        assert code == cli.EXIT_CONFIG and err.startswith("error: ")
        assert exc.where == ({"path": str(bad)} if fault == "non-finite" else {"path": str(bad), "line": 3})

    def test_extract_writes_the_library_features_of_the_test_split(self, dhg_root, tmp_path):
        checkpoint, out = toy_checkpoint(tmp_path / "net.npz"), tmp_path / "f.npz"
        assert run_cli("extract", "--data", str(dhg_root), "--checkpoint", str(checkpoint),
                       "--split", "test", "--out", str(out)) == cli.EXIT_OK
        params, cfg = network.load_checkpoint(checkpoint)
        test, = data.load_dhg(dhg_root, "test")
        want = network.extract_features([data.resample(s, cfg.n_F) for s in test], params, cfg)
        features, labels, _ = cli._read_features(out)
        assert np.array_equal(features, want)
        assert labels.tolist() == [s.label_14 for s in test] == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_sequence_no_split_file_lists_is_not_read(self, tmp_path):
        root = tmp_path / "dhg"
        synth_dhg_tree(root)
        unlisted = root / "gesture_9" / "finger_1" / "subject_1" / "essai_1"
        unlisted.mkdir(parents=True)
        (unlisted / "skeleton_world.txt").write_text("not a frame\n")
        assert run_cli("train", "--data", str(root), *TOY_FLAGS, "--epochs", "1",
                       "--out-dir", str(tmp_path / "out")) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["train", "extract", "pipeline"])
    @pytest.mark.parametrize("fault", ["split-field-not-an-integer", "non-utf8-byte-in-split", "empty-test-split",
                                       "non-utf8-byte-in-skeleton", "listed-entry-without-a-directory"])
    def test_bad_split_or_skeleton_file_exits_2_naming_it(self, fault, command, tmp_path, capsys):
        root = tmp_path / "dhg"
        # Gesture 2, finger 2, 11 frames: subject 2 (train split) for train,
        # subject 3 (test split) for extract and pipeline.
        skeleton = synth_dhg_tree(root)[16 if command == "train" else 17]
        split = root / "test_gestures.txt"
        lines = split.read_text().splitlines()  # 8 lines, g f 3 1 for finger 1 then finger 2
        if fault == "split-field-not-an-integer":
            lines[2] = "3 x 3 1"
            split.write_text("\n".join(lines) + "\n")
            where = {"path": split, "line": 3}
        elif fault == "non-utf8-byte-in-split":
            lines[5] = "2 2 \xff3 1"
            split.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
            where = {"path": split, "line": 6}
        elif fault == "empty-test-split":
            split.write_text("")
            where = {"path": split}
        elif fault == "non-utf8-byte-in-skeleton":
            frames = skeleton.read_text().splitlines()
            frames[6] = "\xff" + frames[6]
            skeleton.write_bytes(("\n".join(frames) + "\n").encode("latin-1"))
            where = {"path": skeleton, "line": 7}
        else:
            shutil.rmtree(skeleton.parent)
            where = {"path": skeleton.parent}
        code, err, exc = _failure(capsys, command, "--data", str(root), *_flags(command, tmp_path))
        assert code == cli.EXIT_CONFIG and err.startswith("error: ")
        assert exc.where == {**where, "path": str(where["path"])}

    @pytest.mark.parametrize("command, split", [("train", "train"), ("extract", "train"), ("extract", "test")],
                             ids=["train", "extract-train", "extract-test"])
    def test_malformed_skeleton_file_of_the_other_split_stops_nothing(self, command, split, tmp_path):
        root = tmp_path / "dhg"
        files = synth_dhg_tree(root)  # files 4 and 5: gesture 2, finger 1, subjects 2 (train) and 3 (test)
        files[5 if split == "train" else 4].write_text("not a frame\n")
        split_flags = ["--split", split] if command == "extract" else []
        assert run_cli(command, "--data", str(root), *_flags(command, tmp_path), *split_flags) == cli.EXIT_OK

    def test_each_command_reads_each_file_of_its_splits_once(self, tmp_path, monkeypatch):
        root, cache = tmp_path / "dhg", tmp_path / "cache.npz"
        split_of = {str(f): "test" if f.parent.parent.name == "subject_3" else "train" for f in synth_dhg_tree(root)}
        data.save_cache(cache, data.synth_generate(2, 4, length=8))
        reads = []
        read_lines, read_npz = data._read_lines, data.read_npz
        monkeypatch.setattr(data, "_read_lines", lambda path, parse: reads.append(str(path)) or read_lines(path, parse))
        monkeypatch.setattr(data, "read_npz", lambda path, layout: reads.append(str(path)) or read_npz(path, layout))
        for command, splits in [("train", {"train"}), ("extract-train", {"train"}), ("extract-test", {"test"}),
                                ("pipeline", {"train", "test"})]:
            name, _, split = command.partition("-")
            reads.clear()
            split_flags = ["--split", split] if split else []
            assert run_cli(name, "--data", str(root), *_flags(name, tmp_path), *split_flags) == cli.EXIT_OK
            assert sorted(p for p in reads if p in split_of) == sorted(p for p in split_of if split_of[p] in splits)
            # Both split files, once each, however many splits the command uses.
            assert sorted(p for p in reads if p.endswith("_gestures.txt")) == [str(root / "test_gestures.txt"),
                                                                               str(root / "train_gestures.txt")]
        for command in ("train", "pipeline"):
            reads.clear()
            code = run_cli(command, "--cache", str(cache), "--per-class", "1", *_flags(command, tmp_path))
            assert code == cli.EXIT_OK
            assert reads.count(str(cache)) == 1

    @pytest.mark.parametrize("command", ["train", "extract", "pipeline"])
    def test_sequence_both_split_files_list_exits_2_naming_the_test_file(self, command, tmp_path, capsys):
        root = tmp_path / "dhg"
        synth_dhg_tree(root)
        with open(root / "test_gestures.txt", "a") as fh:
            fh.write("1 1 1 1\n")  # gesture 1, finger 1, subject 1: a train entry
        code, err, exc = _failure(capsys, command, "--data", str(root), *_flags(command, tmp_path))
        assert code == cli.EXIT_CONFIG and "sequence (1, 1, 1, 1) is in both split files" in err
        assert exc.where == {"path": str(root / "test_gestures.txt")}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["data", "cache"])
    @pytest.mark.parametrize("command", ["train", "extract"])
    def test_label_outside_n_classes_exits_2_before_any_work(self, command, source, tmp_path, capsys):
        # Gesture 15 in both splits: outside train's --classes 14 and the checkpoint's 4 classes.
        frames = data.synth_generate(1, 1, length=6)[0].frames
        entries = [(g, 1, s, 1, frames) for g in (1, 15) for s in (1, 2)]
        if source == "data":
            write_dhg_tree(tmp_path / "dhg", entries, test_subjects=(2,))
            flags = ["--data", str(tmp_path / "dhg")]
            where = {"path": str(tmp_path / "dhg" / data.SPLIT_FILES["train" if command == "train" else "test"])}
        else:
            data.save_cache(tmp_path / "c.npz",
                            [data.GestureSequence(frames, g, trial=s - 1) for g, _, s, _, _ in entries])
            flags = ["--cache", str(tmp_path / "c.npz"), "--per-class", "1"]
            where = {"path": str(tmp_path / "c.npz"), "array": "meta"}
        classes = ["--classes", "14"] if command == "train" else []
        code, err, exc = _failure(capsys, command, *flags, *_flags(command, tmp_path), *classes)
        assert code == cli.EXIT_CONFIG and "label 15 outside [1, " in err
        assert exc.where == where
        assert not (tmp_path / "out").exists() and not (tmp_path / "f.npz").exists()


class TestCacheSplit:
    @pytest.fixture
    def cache(self, tmp_path):
        path = tmp_path / "cache.npz"
        assert run_cli("synth", "--classes", "4", "--per-class", "3",
                       "--length", "8", "--out", str(path)) == cli.EXIT_OK
        return path

    def _args(self, cache, per_class):
        return cli.make_parser().parse_args(
            ["extract", "--cache", str(cache), "--per-class", str(per_class),
             "--checkpoint", "unused.npz", "--out", "unused.npz"]
        )

    def test_splits_are_disjoint_and_cover_the_cache(self, cache):
        train, test = cli._load_sequences(self._args(cache, 2), TOY_CONFIG, "train", "test")
        key = lambda s: (s.label_14, s.subject, s.trial)
        train_keys, test_keys = {key(s) for s in train}, {key(s) for s in test}
        assert len(train) == 8 and len(test) == 4
        assert not train_keys & test_keys
        assert train_keys | test_keys == {key(s) for s in data.load_cache(cache)}
        assert all(s.trial < 2 for s in train) and all(s.trial == 2 for s in test)

    @pytest.mark.parametrize("per_class", [0, 3])
    def test_empty_split_is_config_error(self, cache, per_class):
        # Only a split asked for must hold a sequence.
        args = self._args(cache, per_class)
        empty, full = ("train", "test") if per_class == 0 else ("test", "train")
        for splits in ([empty], ["train", "test"]):
            with pytest.raises(InvalidInput, match=f"--per-class {per_class} leaves the {empty} split") as err:
                cli._load_sequences(args, TOY_CONFIG, *splits)
            assert err.value.where == {"path": str(cache)}
        assert len(cli._load_sequences(args, TOY_CONFIG, full)[0]) == 12


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = _run_child("gradcheck", "--instances", "1", "--layer", "half_vec")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_file_fault_prints_no_traceback(self, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an archive")
        proc = _run_child("svm", "--features", str(junk), "--out", str(tmp_path / "m.npz"))
        assert proc.returncode == cli.EXIT_CONFIG
        assert str(junk) in proc.stderr and "Traceback" not in proc.stderr
