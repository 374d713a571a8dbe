"""Dataset ingestion, sequence-length normalization, splits, and the
synthetic gesture generator used by desk-scale end-to-end tests.

The on-disk layout follows the public DHG/SHREC'17 distribution:

    root/gesture_G/finger_F/subject_S/essai_E/skeleton_world.txt

(``skeletons_world.txt`` in the SHREC'17 release) with one frame per line,
66 whitespace-separated floats (22 joints x xyz), and split list files
``train_gestures.txt`` / ``test_gestures.txt`` whose lines start with the
four integers  gesture finger subject essai.  ``load_dhg`` reads each split
file once, then only the skeleton files that the asked splits list, each at
the directory its four integers name; a key both files list is an error.  Both
text formats go through one line reader, so a malformed line of either is
an error with the file's path and the line.  ``synth_generate`` checks its
length against ``MAX_FRAMES``, the bound ``NetworkConfig`` puts on a
sequence, and its frame count in all against ``MAX_SYNTH_FRAMES`` before it
allocates anything.
"""

from __future__ import annotations

import lzma
import zipfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidInput

N_JOINTS = 22
# A sequence the network reads is resampled to at most MAX_FRAMES frames;
# ``synth_generate`` writes at most MAX_SYNTH_FRAMES frames in all, 1.1 GB
# of coordinates.
MAX_FRAMES = 10_000
MAX_SYNTH_FRAMES = 2_000_000


@dataclass
class GestureSequence:
    frames: np.ndarray       # (n, n_joints, 3)
    label_14: int            # coarse gesture class, 1-based
    label_28: int | None = None  # fine class: 2*(gesture-1) + finger
    subject: int = 0
    trial: int = 0
    finger: int = 1          # 1 = one finger, 2 = whole hand

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3 or self.frames.shape[2] != 3:
            raise InvalidInput(f"frames must be (n, joints, 3), got {self.frames.shape}")
        if self.frames.shape[0] < 2:
            raise InvalidInput("a gesture sequence needs at least two frames")
        if not np.all(np.isfinite(self.frames)):
            raise InvalidInput("gesture coordinates contain non-finite values")
        if self.label_28 is None:
            self.label_28 = 2 * (self.label_14 - 1) + self.finger

    def label(self, n_classes: int) -> int:
        return self.label_28 if n_classes == 28 else self.label_14


def _read_lines(path: Path, parse) -> list:
    """``parse`` of the whitespace-split fields of each non-blank line of a
    text file.  The file is read as bytes, which ``float`` and ``int`` take,
    so a byte that is not UTF-8 is a field that does not convert.  A field
    that does not convert, or a line ``parse`` finds of the wrong width (a
    ValueError either way), is InvalidInput with the path and the line."""
    rows = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                rows.append(parse(fields))
            except ValueError as exc:
                raise InvalidInput(str(exc), path=path, line=lineno) from None
    return rows


def _frame(fields) -> list[float]:
    if len(fields) != 3 * N_JOINTS:
        raise ValueError(f"expected {3 * N_JOINTS} floats per frame, got {len(fields)}")
    return [float(p) for p in fields]


def _split_key(fields) -> tuple[int, int, int, int]:
    if len(fields) < 4:
        raise ValueError(f"expected gesture, finger, subject and essai, got {len(fields)} fields")
    return tuple(int(p) for p in fields[:4])


def _load_sequence(root: Path, key, listed: Path) -> GestureSequence:
    g, f, s, e = key
    directory = root / f"gesture_{g}" / f"finger_{f}" / f"subject_{s}" / f"essai_{e}"
    # The world-coordinate file: DHG's name, then SHREC'17's.  The other
    # .txt files beside it (image coordinates, general information) have
    # other formats.
    path = next((p for p in (directory / "skeleton_world.txt", directory / "skeletons_world.txt") if p.is_file()), None)
    if path is None:
        raise InvalidInput(f"no skeleton_world.txt or skeletons_world.txt for an entry of {listed}", path=directory)
    frames = np.reshape(_read_lines(path, _frame), (-1, N_JOINTS, 3))
    try:
        return GestureSequence(frames, label_14=g, subject=s, trial=e, finger=f)
    except InvalidInput as exc:
        raise exc.at(path=path)


SPLIT_FILES = {"train": "train_gestures.txt", "test": "test_gestures.txt"}


def load_dhg(root, *splits: str) -> list[list[GestureSequence]]:
    """One list per split asked ("train", "test") of the sequences its split
    file lists, in sorted key order.  Both split files are read once: one
    that lists no sequence, or a key that both list, is an error, and a
    missing root or split file is the OSError of opening it."""
    if unknown := [split for split in splits if split not in SPLIT_FILES]:
        raise InvalidInput(f"unknown split {unknown[0]!r}, expected 'train' or 'test'")
    root = Path(root)
    keys = {name: set(_read_lines(root / file, _split_key)) for name, file in SPLIT_FILES.items()}
    if empty := [file for name, file in SPLIT_FILES.items() if not keys[name]]:
        raise InvalidInput("split file lists no sequence", path=root / empty[0])
    if shared := keys["train"] & keys["test"]:
        raise InvalidInput(f"sequence {min(shared)} is in both split files, here and in {root / SPLIT_FILES['train']}",
                           path=root / SPLIT_FILES["test"])
    return [[_load_sequence(root, key, root / SPLIT_FILES[split]) for key in sorted(keys[split])] for split in splits]


def resample(seq: GestureSequence, target_len: int) -> GestureSequence:
    """Normalize a sequence to target_len frames by per-joint,
    per-coordinate piecewise-linear interpolation at uniformly spaced
    parameters over [0, 1]; endpoints are preserved exactly and
    length-matching input is returned unchanged."""
    n = seq.frames.shape[0]
    if n == target_len:
        return seq
    t_old = np.linspace(0.0, 1.0, n)
    t_new = np.linspace(0.0, 1.0, target_len)
    flat = seq.frames.reshape(n, -1)
    # np.interp's own arithmetic on every column at once, exact knots copied.
    j = np.clip(np.searchsorted(t_old, t_new, side="right") - 1, 0, n - 2)
    slope = (flat[j + 1] - flat[j]) / (t_old[j + 1] - t_old[j])[:, None]
    out = np.where((t_old[j] == t_new)[:, None], flat[j], slope * (t_new - t_old[j])[:, None] + flat[j])
    out[0] = flat[0]
    out[-1] = flat[-1]
    return replace(seq, frames=out.reshape(target_len, *seq.frames.shape[1:]))


def rest_pose() -> np.ndarray:
    """Canonical 22-joint hand at rest: wrist, palm, five splayed chains."""
    pose = np.zeros((N_JOINTS, 3))
    pose[0] = (0.0, 0.0, 0.0)
    pose[1] = (0.0, 0.04, 0.0)
    base_x = (-0.05, -0.025, 0.0, 0.025, 0.05)
    for f in range(5):
        direction = np.array([base_x[f], 0.09, 0.0])
        direction /= np.linalg.norm(direction)
        for k in range(4):
            pose[2 + 4 * f + k] = np.array([base_x[f], 0.08, 0.0]) + 0.022 * k * direction
    return pose


def _prototype_motion(class_id: int, t: np.ndarray, pose: np.ndarray) -> np.ndarray:
    """Trajectory (n, 22, 3) of motion prototype class_id over phases t in [0, 1]."""
    n = t.shape[0]
    frames = np.repeat(pose[None], n, axis=0)
    phase = 2.0 * np.pi * t
    fingers = [list(range(2 + 4 * f, 6 + 4 * f)) for f in range(5)]
    depth = np.tile(np.arange(4), 5) / 3.0  # 0 at base, 1 at tip, per chain
    if class_id == 1:      # sway along x
        frames[..., 0] += 0.06 * np.sin(phase)[:, None]
    elif class_id == 2:    # lift along y
        frames[..., 1] += 0.06 * np.sin(phase)[:, None]
    elif class_id == 3:    # flex: finger joints curl in z by chain depth
        frames[:, 2:, 2] += 0.05 * np.sin(phase)[:, None] * depth[None, :]
    elif class_id == 4:    # spread: fingers fan out in x
        spread = np.concatenate([np.full(4, x) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)])
        frames[:, 2:, 0] += 0.02 * np.sin(phase)[:, None] * spread[None, :]
    elif class_id == 5:    # rotate about z
        angle = 0.5 * np.sin(phase)
        ca, sa = np.cos(angle), np.sin(angle)
        x, y = frames[..., 0].copy(), frames[..., 1].copy()
        frames[..., 0] = ca[:, None] * x - sa[:, None] * y
        frames[..., 1] = sa[:, None] * x + ca[:, None] * y
    elif class_id == 6:    # wave: per-finger phase-shifted z ripple
        for f, joints in enumerate(fingers):
            frames[:, joints, 2] += 0.05 * np.sin(phase + 0.8 * f)[:, None]
    elif class_id == 7:    # pinch: thumb and index chains approach
        pull = 0.03 * np.sin(phase)
        frames[:, fingers[0], 0] += pull[:, None]
        frames[:, fingers[1], 0] -= pull[:, None]
    elif class_id == 8:    # shake: fast x oscillation
        frames[..., 0] += 0.05 * np.sin(3.0 * phase)[:, None]
    return frames


def synth_generate(
    n_per_class: int,
    n_classes: int,
    noise_sigma: float = 0.01,
    seed: int = 0,
    *,
    length: int,
) -> list[GestureSequence]:
    """Labeled synthetic gestures: one motion prototype per class plus
    additive Gaussian coordinate noise.  Separable by construction."""
    if not 1 <= n_classes <= 8:
        raise InvalidInput(f"n_classes must be in [1, 8], the motion prototypes, got {n_classes}")
    if n_per_class < 1:
        raise InvalidInput(f"n_per_class must be >= 1, got {n_per_class}")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    if not 0 <= noise_sigma < np.inf:  # NaN fails too
        raise InvalidInput(f"noise_sigma must be >= 0 and finite, got {noise_sigma}")
    if not 2 <= length <= MAX_FRAMES:
        raise InvalidInput(f"length must be in [2, {MAX_FRAMES}], got {length}")
    if (total := n_classes * n_per_class * length) > MAX_SYNTH_FRAMES:
        raise InvalidInput(f"{n_classes} classes x {n_per_class} per class x {length} frames is {total} frames,"
                           f" more than MAX_SYNTH_FRAMES {MAX_SYNTH_FRAMES}")
    rng = np.random.default_rng(seed)
    pose = rest_pose()
    t = np.linspace(0.0, 1.0, length)
    sequences = []
    for cls in range(1, n_classes + 1):
        clean = _prototype_motion(cls, t, pose)
        for trial in range(n_per_class):
            noisy = clean + noise_sigma * rng.standard_normal(clean.shape)
            sequences.append(
                GestureSequence(noisy, label_14=cls, label_28=cls, subject=0, trial=trial)
            )
    return sequences


CACHE_VERSION = 1
CACHE_LAYOUT = {"version": ((1,), "i"), "count": ((1,), "i"), "meta": ((None, 5), "i")}


def save_cache(path, sequences):
    """Lossless internal dataset cache: ``CACHE_LAYOUT`` plus one
    ``frames_{i:05d}`` array per sequence."""
    meta = [[s.label_14, s.label_28, s.subject, s.trial, s.finger] for s in sequences]
    write_npz(path, version=np.array([CACHE_VERSION]), count=np.array([len(sequences)]),
              meta=np.array(meta, dtype=np.int64).reshape(-1, 5),
              **{f"frames_{i:05d}": s.frames for i, s in enumerate(sequences)})


def load_cache(path) -> list[GestureSequence]:
    arrays = read_npz(path, CACHE_LAYOUT)
    if int(arrays["version"][0]) != CACHE_VERSION:
        raise InvalidInput("unsupported cache version", path=path, array="version")
    meta, count = arrays["meta"], int(arrays["count"][0])
    if count != meta.shape[0]:
        raise InvalidInput(f"count {count} with {meta.shape[0]} rows of meta", path=path, array="meta")
    names = [f"frames_{i:05d}" for i in range(count)]
    _check_layout(path, arrays, dict.fromkeys(names, ((None, None, 3), "f")))
    sequences = []
    for name, row in zip(names, meta.tolist()):
        try:
            sequences.append(GestureSequence(arrays[name], *row))
        except InvalidInput as exc:
            raise exc.at(path=path, array=name)
    return sequences


def write_npz(path, **arrays):
    """Write ``arrays`` to exactly ``path`` as an uncompressed npz archive.
    Every member carries the zip format's fixed 1980 date, so the same
    arrays give the same bytes; members are zip64, as ``np.savez`` writes
    them, so one may pass 2 GiB."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in arrays.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(array), allow_pickle=False)


def read_npz(path, layout: dict) -> dict:
    """Every array of the npz archive at ``path``, compressed or not.

    ``layout`` maps each array the file must hold to its (shape, dtype
    kind); None in a shape matches any length.  InvalidInput, with the path
    and the array where there is one as fields, says when the file is not an
    npz archive of plain arrays, a member cannot be read (its header may
    claim more than memory holds, its zip directory entry encryption or a
    compression method its bytes are not in), a layout array is missing or
    does not match; an unopenable path raises the OSError.
    """
    arrays, name = {}, None
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as archive:
                for member in archive.infolist():
                    name = member.filename.removesuffix(".npy")
                    with archive.open(member) as npy:
                        arrays[name] = np.lib.format.read_array(npy, allow_pickle=False)
        # zipfile raises RuntimeError for encryption or an unknown method
        # (NotImplementedError); bz2 raises OSError and lzma LZMAError on
        # bytes they cannot decode.
        except (ValueError, EOFError, MemoryError, OSError, RuntimeError, zipfile.BadZipFile, zlib.error,
                lzma.LZMAError) as exc:
            what = "not an npz archive" if name is None else "array cannot be read"
            raise InvalidInput(f"{what} ({exc})", path=path, array=name) from None
    _check_layout(path, arrays, layout)
    return arrays


def _check_layout(path, arrays, layout):
    for name, (shape, kind) in layout.items():
        if name not in arrays:
            raise InvalidInput("no such array in the npz archive", path=path, array=name)
        got = arrays[name]
        if got.dtype.kind != kind or len(got.shape) != len(shape) or any(
            want not in (None, n) for want, n in zip(shape, got.shape)
        ):
            raise InvalidInput(f"array is {got.dtype} {got.shape}, expected kind {kind!r} {shape}",
                               path=path, array=name)
        if kind == "f" and not np.isfinite(got).all():
            raise InvalidInput("array holds a non-finite value", path=path, array=name)
