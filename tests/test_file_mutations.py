"""Every file reader on a valid file with one thing wrong.

Each npz array of each file kind, as its ``*_LAYOUT`` names it, is in turn
dropped, given a header its member cannot back, retyped, given a leading
axis, or (a float array) given a NaN: the library reader raises InvalidInput
naming the file and the array.  Then, through ``cli.main``, the bytes are
truncated or one byte flipped, or one npz array dropped, emptied, reshaped,
retyped or pushed out of range: the command that reads the file either
succeeds, fails numerically naming the layer, or exits 2 naming the file;
no exception escapes ``cli.main``."""

import contextlib
import importlib
import io
import pkgutil
import re
import shutil
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import handspd
from handspd import classify, cli, data, network
from handspd.errors import InvalidInput

from archives import claimed, edit_npz
from dhg import synth_dhg_tree
from toy import TOY_FLAGS, toy_checkpoint

RETYPES = ["<f8", "<f4", "<i8", "|b1", "<c16", "<U8"]
# Each kind of file: its name under a copy of the valid files, the command
# line (the files' directory given) that reads it, the library function
# that reads it, and the layout ``data.read_npz`` checks it against.  A
# cache also holds one ``frames_NNNNN`` per ``meta`` row, which
# ``load_cache`` checks the same way.
Reader = namedtuple("Reader", "file argv load layout")
READERS = {
    "cache": Reader("cache.npz", lambda d: ["train", "--cache", str(d / "cache.npz"), "--per-class", "1", *TOY_FLAGS,
                                            "--epochs", "1", "--batch-size", "4", "--out-dir", str(d / "out")],
                    data.load_cache, data.CACHE_LAYOUT),
    "checkpoint": Reader("net.npz", lambda d: ["extract", "--cache", str(d / "cache.npz"), "--per-class", "1",
                                               "--checkpoint", str(d / "net.npz"), "--out", str(d / "f.npz")],
                         network.load_checkpoint, network.CHECKPOINT_LAYOUT),
    "features": Reader("features.npz", lambda d: ["svm", "--features", str(d / "features.npz"),
                                                  "--out", str(d / "m.npz")],
                       cli._read_features, cli.FEATURES_LAYOUT),
    "model": Reader("model.npz", lambda d: ["eval", "--model", str(d / "model.npz"), "--features",
                                            str(d / "features.npz"), "--report-dir", str(d / "report")],
                    classify.load_model, classify.MODEL_LAYOUT),
}
FRAMES = {"frames_00000": ((None, None, 3), "f")}


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
        toy_checkpoint(root / "net.npz")
        assert cli.main(READERS["checkpoint"].argv(root)) == cli.EXIT_OK
        (root / "f.npz").rename(root / "features.npz")
        assert cli.main(READERS["features"].argv(root)) == cli.EXIT_OK
        (root / "m.npz").rename(root / "model.npz")
    synth_dhg_tree(root / "dhg")
    return root


# The row count a member's header claims, over 64 bytes of data: 8 TiB of
# float64, a negative length, or more rows than the bytes hold.
CLAIMED_ROWS = {"huge": 2**40, "negative": -1, "overlong": 100}


def _container_faults():
    for kind, reader in READERS.items():
        for name, (_, dtype_kind) in {**reader.layout, **(FRAMES if kind == "cache" else {})}.items():
            for fault in ["drop", *CLAIMED_ROWS, "retype", "leading-axis", *(["nan"] if dtype_kind == "f" else [])]:
                yield pytest.param(kind, name, fault, id=f"{kind}-{name}-{fault}")


def _faulty(array, fault):
    """The member that replaces ``array``: None drops it, and bytes are a
    claimed header."""
    if fault == "drop":
        return None
    if fault in CLAIMED_ROWS:
        return claimed((CLAIMED_ROWS[fault], *array.shape[1:]))
    if fault == "retype":
        return array.astype(np.int64 if array.dtype.kind == "f" else np.float64)
    if fault == "leading-axis":
        return array[None]
    nan = array.copy()
    nan.flat[0] = np.nan
    return nan


@pytest.mark.parametrize("kind, name, fault", _container_faults())
def test_container_fault_names_the_file_and_the_array(kind, name, fault, valid, tmp_path):
    path = Path(shutil.copy(valid / READERS[kind].file, tmp_path))
    with np.load(path) as archive:
        array = archive[name]
    edit_npz(path, **{name: _faulty(array, fault)})
    with pytest.raises(InvalidInput) as err:
        READERS[kind].load(path)
    assert err.value.where == {"path": str(path), "array": name}


@pytest.mark.parametrize("kind", READERS)
def test_file_that_is_not_an_npz_archive_names_the_file(kind, tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(InvalidInput, match="not an npz archive") as err:
        READERS[kind].load(path)
    assert err.value.where == {"path": str(path)}


def test_every_layout_has_a_reader_here():
    # A file kind the package adds cannot skip the container test.
    read = {id(reader.layout) for reader in READERS.values()}
    modules = [importlib.import_module(f"handspd.{m.name}") for m in pkgutil.iter_modules(handspd.__path__)]
    unread = {f"{module.__name__}.{name}" for module in modules for name, value in vars(module).items()
              if name.endswith("_LAYOUT") and isinstance(value, dict) and id(value) not in read}
    assert not unread, f"no entry in READERS for {sorted(unread)}"


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
    with _copy(valid) as files:
        path = files / READERS[kind].file
        if data.draw(st.booleans(), label="bytes"):
            _mutate_bytes(data, path)
        else:
            _mutate_array(data, path)
        _check(READERS[kind].argv(files), path)


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
