"""Every file reader, through ``cli.main``, on a valid file with one thing
mutated: the bytes truncated or one byte flipped, or one npz array dropped,
emptied, reshaped, retyped or pushed out of range.  The command that reads
the file either succeeds, fails numerically naming the layer, or exits 2
naming the file; no exception escapes ``cli.main``."""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from handspd import cli, network, optim
from handspd.network import NetworkConfig

from archives import edit_npz
from dhg import synth_dhg_tree

TOY_FLAGS = ["--d1", "2", "--levels", "2", "--length", "8", "--classes", "4"]
RETYPES = ["<f8", "<f4", "<i8", "|b1", "<c16", "<U8"]
# Each kind of file: its name under a copy of the valid files, and the
# command line (the files' directory given) that reads it.
READERS = {
    "cache": ("cache.npz", lambda d: ["train", "--cache", str(d / "cache.npz"), "--per-class", "1", *TOY_FLAGS,
                                      "--epochs", "1", "--batch-size", "4", "--out-dir", str(d / "out")]),
    "checkpoint": ("net.npz", lambda d: ["extract", "--cache", str(d / "cache.npz"), "--per-class", "1",
                                         "--checkpoint", str(d / "net.npz"), "--out", str(d / "f.npz")]),
    "features": ("features.npz", lambda d: ["svm", "--features", str(d / "features.npz"),
                                            "--out", str(d / "m.npz")]),
    "model": ("model.npz", lambda d: ["eval", "--model", str(d / "model.npz"), "--features",
                                      str(d / "features.npz"), "--report-dir", str(d / "report")]),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory of valid files: a synth cache of 4 classes x 2 trials of
    8 frames, a checkpoint of the toy network, the features ``extract``
    writes of the cache's test split and the model ``svm`` fits on them,
    and a DHG tree (``dhg/``) of synth gestures."""
    root = tmp_path_factory.mktemp("valid")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--classes", "4", "--per-class", "2", "--length", "8",
                         "--out", str(root / "cache.npz")]) == cli.EXIT_OK
        cfg = NetworkConfig(d1=2, n_T=2, n_F=8, n_classes=4)
        network.save_checkpoint(root / "net.npz", optim.init_params(cfg), cfg)
        assert cli.main(READERS["checkpoint"][1](root)) == cli.EXIT_OK
        (root / "f.npz").rename(root / "features.npz")
        assert cli.main(READERS["features"][1](root)) == cli.EXIT_OK
        (root / "m.npz").rename(root / "model.npz")
    synth_dhg_tree(root / "dhg")
    return root


def _check(argv, path):
    """Run ``argv`` in this process; the outcome must be one of the three allowed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    if code == cli.EXIT_NUMERICAL:
        assert err.startswith("numerical failure: ") and re.search(r"\[(.*, )?layer ", err), err
    elif code == cli.EXIT_CONFIG:
        assert err.startswith("error: ") and str(path) in err, err
    else:
        assert code == cli.EXIT_OK, err


def _mutate_bytes(data, path):
    # Half the offsets fall in the last 256 bytes: an npz archive's zip
    # directory, which an offset drawn from the whole file seldom hits.
    blob = path.read_bytes()
    at = data.draw(st.integers(0, len(blob) - 1) | st.integers(max(0, len(blob) - 256), len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        path.write_bytes(blob[:at])
    else:
        flipped = blob[at] ^ data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(blob[:at] + bytes([flipped]) + blob[at + 1:])


def _reshapes(shape):
    """Other shapes of the same size: flattened, a leading axis added, the
    first two lengths swapped."""
    size = int(np.prod(shape))
    options = [(size,), (1, *shape), (*shape[1::-1], *shape[2:])]
    return [s for s in dict.fromkeys(options) if s != shape]


def _mutate_array(data, path):
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    name = data.draw(st.sampled_from(sorted(arrays)), label="array")
    array = arrays[name]
    ops = ["drop", "empty", "reshape", "retype"] + (["push"] if array.dtype.kind in "iu" else [])
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "drop":
        new = None
    elif op == "empty":
        new = np.empty((0, *array.shape[1:]), array.dtype)
    elif op == "reshape":
        new = array.reshape(data.draw(st.sampled_from(_reshapes(array.shape)), label="shape"))
    elif op == "retype":
        new = array.astype(data.draw(st.sampled_from([t for t in RETYPES if t != array.dtype.str]), label="dtype"))
    else:
        new = np.asarray(array + 10**6)
    edit_npz(path, **{name: new})


@contextlib.contextmanager
def _copy(valid):
    with tempfile.TemporaryDirectory(dir=valid.parent) as tmp:
        copy = Path(tmp) / "files"
        shutil.copytree(valid, copy)
        yield copy


EXAMPLES = settings(max_examples=60, phases=[Phase.explicit, Phase.generate, Phase.shrink])


@pytest.mark.parametrize("kind", READERS)
@EXAMPLES
@given(data=st.data())
def test_mutated_npz_file_reads_fails_numerically_or_exits_2_naming_it(kind, valid, data):
    name, argv = READERS[kind]
    with _copy(valid) as files:
        path = files / name
        if data.draw(st.booleans(), label="bytes"):
            _mutate_bytes(data, path)
        else:
            _mutate_array(data, path)
        _check(argv(files), path)


@EXAMPLES
@given(data=st.data())
def test_mutated_skeleton_file_reads_fails_numerically_or_exits_2_naming_it(valid, data):
    with _copy(valid) as files:
        root = files / "dhg"
        skeletons = sorted(root.glob("gesture_*/finger_*/subject_*/essai_*/skeleton_world.txt"))
        path = data.draw(st.sampled_from(skeletons), label="file")
        _mutate_bytes(data, path)
        split = "test" if path.parent.parent.name == "subject_3" else "train"
        _check(["extract", "--data", str(root), "--checkpoint", str(files / "net.npz"), "--split", split,
                "--out", str(files / "f.npz")], path)


@EXAMPLES
@given(data=st.data())
def test_mutated_split_file_reads_fails_numerically_or_exits_2_naming_it(valid, data):
    with _copy(valid) as files:
        root = files / "dhg"
        path = root / data.draw(st.sampled_from(["train_gestures.txt", "test_gestures.txt"]), label="file")
        _mutate_bytes(data, path)
        _check(["extract", "--data", str(root), "--checkpoint", str(files / "net.npz"), "--split", "test",
                "--out", str(files / "f.npz")], path)
