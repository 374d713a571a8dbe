import re

import numpy as np
import pytest

from handspd import data
from handspd.data import GestureSequence
from handspd.errors import InvalidInput

import oracles
from archives import edit_npz
from dhg import write_dhg_tree


def _valid_frames(n=5):
    rng = np.random.default_rng(0)
    return rng.standard_normal((n, data.N_JOINTS, 3))


class TestGestureSequence:
    def test_fine_label_derived_from_coarse_and_finger(self):
        seq = GestureSequence(_valid_frames(), label_14=3, finger=2)
        assert seq.label_28 == 6
        seq = GestureSequence(_valid_frames(), label_14=3, finger=1)
        assert seq.label_28 == 5

    def test_label_selector(self):
        seq = GestureSequence(_valid_frames(), label_14=4, finger=2)
        assert seq.label(14) == 4
        assert seq.label(28) == 8

    def test_validation(self):
        with pytest.raises(InvalidInput):
            GestureSequence(np.zeros((1, 22, 3)), label_14=1)
        with pytest.raises(InvalidInput):
            GestureSequence(np.zeros((5, 22, 2)), label_14=1)
        bad = _valid_frames()
        bad[0, 0, 0] = np.inf
        with pytest.raises(InvalidInput):
            GestureSequence(bad, label_14=1)


class TestResample:
    def test_matching_length_returned_unchanged(self):
        seq = GestureSequence(_valid_frames(10), label_14=1)
        assert data.resample(seq, 10) is seq

    def test_interpolation_preserves_endpoints_and_linearity(self):
        # A linear trajectory resamples exactly onto the same line.
        t = np.linspace(0.0, 1.0, 7)[:, None, None]
        frames = t * np.ones((7, 22, 3))
        seq = GestureSequence(frames, label_14=2, finger=2, subject=3, trial=4)
        out = data.resample(seq, 13)
        assert out.frames.shape == (13, 22, 3)
        expected = np.linspace(0.0, 1.0, 13)[:, None, None] * np.ones((13, 22, 3))
        assert np.abs(out.frames - expected).max() < 1e-12
        assert np.array_equal(out.frames[0], frames[0])
        assert np.array_equal(out.frames[-1], frames[-1])
        assert (out.label_14, out.label_28, out.subject, out.trial, out.finger) == (2, 4, 3, 4, 2)

    def test_interpolation_is_bitwise_np_interp(self):
        # The vectorised interpolation repeats np.interp's arithmetic, so it
        # must agree to the last bit with one np.interp call per column.
        rng = np.random.default_rng(6)
        for n in range(2, 401):
            frames = rng.standard_normal((n, 2, 3))
            seq = GestureSequence(frames, label_14=1)
            t_old = np.linspace(0.0, 1.0, n)
            for target in (8, 57, 171, 400):
                t_new = np.linspace(0.0, 1.0, target)
                want = np.stack(
                    [np.interp(t_new, t_old, col) for col in frames.reshape(n, -1).T], axis=-1
                ).reshape(target, 2, 3)
                assert np.array_equal(data.resample(seq, target).frames, want), (n, target)


class TestSyntheticGenerator:
    def test_counts_labels_and_shapes(self):
        seqs = data.synth_generate(3, 4, noise_sigma=0.01, seed=0, length=20)
        assert len(seqs) == 12
        for seq in seqs:
            assert seq.frames.shape == (20, 22, 3)
        assert sorted({s.label_14 for s in seqs}) == [1, 2, 3, 4]

    def test_seeded_determinism(self):
        a = data.synth_generate(2, 3, seed=5, length=12)
        b = data.synth_generate(2, 3, seed=5, length=12)
        c = data.synth_generate(2, 3, seed=6, length=12)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.frames, s2.frames)
        assert not np.array_equal(a[0].frames, c[0].frames)

    def test_classes_separable_by_nearest_mean(self):
        seqs = data.synth_generate(20, 4, noise_sigma=0.01, seed=0, length=30)
        train = [s for s in seqs if s.trial < 12]
        test = [s for s in seqs if s.trial >= 12]
        assert oracles.nearest_mean_accuracy(train, test) >= 0.9

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInput, match=r"^n_classes must be in \[1, 8\], the motion prototypes, got 9$"):
            data.synth_generate(2, 9, length=8)
        with pytest.raises(InvalidInput, match=r"^n_per_class must be >= 1, got 0$"):
            data.synth_generate(0, 3, length=8)
        for noise in (np.nan, np.inf, -1.0):
            with pytest.raises(InvalidInput, match=rf"^noise_sigma must be >= 0 and finite, got {noise}$"):
                data.synth_generate(2, 3, noise_sigma=noise, length=8)
        # A noise that overflows a coordinate names the setting, and gives no numpy warning.
        with pytest.raises(InvalidInput, match=r"^gesture coordinates contain non-finite values at noise_sigma 1e\+308$"):
            data.synth_generate(1, 1, noise_sigma=1e308, length=8)
        assert len(data.synth_generate(1, 1, noise_sigma=1e300, length=8)) == 1

    def test_total_frames_bound_is_inclusive(self, monkeypatch):
        # At the real bound a run would take a gigabyte; the check reads the constant.
        monkeypatch.setattr(data, "MAX_SYNTH_FRAMES", 32)
        assert len(data.synth_generate(2, 2, length=8)) == 4
        with pytest.raises(InvalidInput, match=r"^2 classes x 2 per class x 9 frames is 36 frames, more than "
                                               r"MAX_SYNTH_FRAMES 32$"):
            data.synth_generate(2, 2, length=9)


class TestCache:
    def test_round_trip(self, tmp_path):
        seqs = data.synth_generate(2, 3, seed=1, length=9)
        path = tmp_path / "cache.npz"
        data.save_cache(path, seqs)
        loaded = data.load_cache(path)
        assert len(loaded) == len(seqs)
        for a, b in zip(seqs, loaded):
            assert np.array_equal(a.frames, b.frames)
            assert (a.label_14, a.label_28, a.subject, a.trial, a.finger) == (
                b.label_14, b.label_28, b.subject, b.trial, b.finger,
            )

    @pytest.mark.parametrize("offset, value", [(10, 99), (8, 1), (10, 12), (10, 14)],
                             ids=["unknown-method", "encrypted", "bzip2-over-stored-bytes", "lzma-over-stored-bytes"])
    def test_zip_directory_entry_that_cannot_be_read_names_the_path(self, offset, value, tmp_path):
        # The fields of the last central directory entry: flags at 8, method
        # at 10.  LZMA reads the .npy magic as a 19,797-byte properties
        # field, so the member must be longer than that.
        path = tmp_path / "cache.npz"
        data.save_cache(path, data.synth_generate(1, 2, length=120))
        blob = bytearray(path.read_bytes())
        entry = blob.rfind(b"PK\x01\x02")
        blob[entry + offset:entry + offset + 2] = value.to_bytes(2, "little")
        path.write_bytes(blob)
        with pytest.raises(InvalidInput, match="array cannot be read") as err:
            data.load_cache(path)
        assert err.value.where == {"path": str(path), "array": "frames_00001"}

    def test_compressed_cache_loads(self, tmp_path):
        # The version and count arrays of a cache written before they were
        # dropped are outside the layout, so such a cache still loads.
        seqs = data.synth_generate(1, 2, seed=1, length=9)
        path = tmp_path / "cache.npz"
        np.savez_compressed(path, version=np.array([1]), count=np.array([2]),
                            meta=np.array([[1, 1, 0, 0, 1], [2, 2, 0, 0, 1]]),
                            frames_00000=seqs[0].frames, frames_00001=seqs[1].frames)
        loaded = data.load_cache(path)
        assert [s.label_14 for s in loaded] == [1, 2]
        assert all(np.array_equal(a.frames, b.frames) for a, b in zip(seqs, loaded))

    @pytest.mark.parametrize("meta, message", [
        ([[1, 1], [2, 2]], "array is int64 (2, 2), expected kind 'i' (None, 5)"),
        ([[1, 1, 0, 0, 1]], "frames_00001 has no row among the 1 rows of meta"),
    ], ids=["two-columns", "one-row"])
    def test_meta_that_does_not_match_the_frames_rejected(self, meta, message, tmp_path):
        path = tmp_path / "cache.npz"
        data.save_cache(path, data.synth_generate(1, 2, length=8))
        edit_npz(path, meta=np.array(meta))
        with pytest.raises(InvalidInput, match=re.escape(message)) as err:
            data.load_cache(path)
        assert err.value.where == {"path": str(path), "array": "meta"}


class TestDiskLoading:
    def test_parse_and_load(self, tmp_path):
        frames_a = _valid_frames(4)
        frames_b = _valid_frames(6)
        write_dhg_tree(tmp_path, [(1, 1, 2, 1, frames_a), (3, 2, 3, 1, frames_b)], test_subjects=(3,))
        (train,), (test,) = data.load_dhg(tmp_path, "train", "test")
        assert (train.label_14, train.finger, train.subject, train.trial) == (1, 1, 2, 1)
        assert train.label_28 == 1
        assert test.label_28 == 6
        assert np.array_equal(train.frames, frames_a)  # repr text reads back bit for bit
        assert np.array_equal(test.frames, frames_b)
        (first,), _ = data.load_dhg(tmp_path, "test", "train")  # one list per split, in the order asked
        assert np.array_equal(first.frames, frames_b)

    @pytest.mark.parametrize("name", ["skeleton_world.txt", "skeletons_world.txt"])
    def test_world_file_chosen_among_other_txt_files(self, tmp_path, name):
        # DHG and SHREC'17 names; the release's other .txt files sort first.
        frames = _valid_frames(3)
        write_dhg_tree(tmp_path, [(1, 1, 1, 1, frames), (1, 1, 2, 1, frames)], test_subjects=(2,), name=name)
        d = tmp_path / "gesture_1" / "finger_1" / "subject_1" / "essai_1"
        (d / "general_informations.txt").write_text("0 1 2 3 4\n")
        (d / "skeletons_image.txt").write_text(" ".join(["0"] * 44) + "\n")
        (train,), = data.load_dhg(tmp_path, "train")
        assert np.array_equal(train.frames, frames)

    def test_missing_world_file_names_directory(self, tmp_path):
        bad, _ = write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (1, 1, 2, 1, _valid_frames(3))],
                                test_subjects=(2,))
        bad.unlink()
        (bad.parent / "general_informations.txt").write_text("0 1 2 3 4\n")
        with pytest.raises(InvalidInput) as err:
            data.load_dhg(tmp_path, "train")
        assert err.value.where == {"path": str(bad.parent)}
        assert len(data.load_dhg(tmp_path, "test")[0]) == 1  # the fault is the train split's

    def test_missing_root_rejected(self, tmp_path):
        # As for an empty root, the OSError names the first split file.
        with pytest.raises(FileNotFoundError) as err:
            data.load_dhg(tmp_path / "absent", "train")
        assert err.value.filename == str(tmp_path / "absent" / "train_gestures.txt")

    def test_empty_root_rejected(self, tmp_path):
        # No split file, so nothing to read: the OSError names the first.
        with pytest.raises(FileNotFoundError) as err:
            data.load_dhg(tmp_path, "test")
        assert err.value.filename == str(tmp_path / "train_gestures.txt")

    def test_malformed_line_reports_location(self, tmp_path):
        bad, _ = write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (1, 1, 2, 1, _valid_frames(3))],
                                test_subjects=(2,))
        bad.write_text(" ".join(["0.0"] * 66) + "\n1.0 2.0\n")
        with pytest.raises(InvalidInput, match="expected 66 floats per frame, got 2") as err:
            data.load_dhg(tmp_path, "train")
        assert err.value.where == {"path": str(bad), "line": 2}

    @pytest.mark.parametrize("content, line", [
        ("\n\n" + " ".join(["0.0"] * 65) + " x\n", 4),
        (" ".join(["0.0"] * 65) + " 1.\xff\n", 2),
    ], ids=["after-blank-lines", "non-utf8-byte"])
    def test_field_that_does_not_convert_reports_location(self, content, line, tmp_path):
        bad, _ = write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (1, 1, 2, 1, _valid_frames(3))],
                                test_subjects=(2,))
        bad.write_bytes((" ".join(["0.0"] * 66) + "\n" + content).encode("latin-1"))
        with pytest.raises(InvalidInput, match="could not convert string to float") as err:
            data.load_dhg(tmp_path, "train")
        assert err.value.where == {"path": str(bad), "line": line}

    def test_short_sequence_rejected(self, tmp_path):
        bad, _ = write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (1, 1, 2, 1, _valid_frames(3))],
                                test_subjects=(2,))
        bad.write_text(" ".join(["0.0"] * 66) + "\n")
        with pytest.raises(InvalidInput, match="at least two frames") as err:
            data.load_dhg(tmp_path, "train")
        assert err.value.where == {"path": str(bad)}

    def test_non_finite_coordinate_names_the_file(self, tmp_path):
        frames = _valid_frames(4)
        frames[2, 5, 1] = np.nan
        _, bad = write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (2, 1, 2, 1, frames)],
                                test_subjects=(2,))
        assert "nan" in bad.read_text().splitlines()[2]
        with pytest.raises(InvalidInput, match="non-finite") as err:
            data.load_dhg(tmp_path, "test")
        assert err.value.where == {"path": str(bad)}

    def test_split_files(self, tmp_path):
        # Keys are read from each line's first four fields, listed in any
        # order and more than once; a sequence neither file lists is not
        # read, so a malformed one stops nothing.
        frames = _valid_frames(3)
        *_, unlisted = write_dhg_tree(
            tmp_path,
            [(2, 2, 1, 1, frames), (1, 1, 1, 1, frames), (1, 1, 1, 2, frames), (3, 1, 1, 1, frames)],
            test_subjects=(),
        )
        unlisted.write_text("not a frame\n")
        (tmp_path / "train_gestures.txt").write_text("2 2 1 1\n1 1 1 1 extra tokens\n\n2 2 1 1\n")
        (tmp_path / "test_gestures.txt").write_text("1 1 1 2\n")
        train, test = data.load_dhg(tmp_path, "train", "test")
        assert [(s.label_14, s.finger) for s in train] == [(1, 1), (2, 2)]
        assert [s.trial for s in test] == [2]

    @pytest.mark.parametrize("content, message, line", [
        ("1 1 1 1\n1 x 1 1\n", "invalid literal for int()", 2),
        ("1 1 1\n", "got 3 fields", 1),
        ("1 1 1 1\n\n1 1 \xff 1\n", "invalid literal for int()", 3),
        ("\n", "split file lists no sequence", None),
    ], ids=["bad-integer", "short-line", "non-utf8-byte", "empty"])
    def test_bad_split_file_reports_location(self, content, message, line, tmp_path):
        write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (1, 1, 2, 1, _valid_frames(3))],
                       test_subjects=(2,))
        (tmp_path / "test_gestures.txt").write_bytes(content.encode("latin-1"))
        with pytest.raises(InvalidInput, match=re.escape(message)) as err:
            data.load_dhg(tmp_path, "train")  # both split files are read for either split
        assert err.value.where == {"path": str(tmp_path / "test_gestures.txt"), **({"line": line} if line else {})}

    def test_split_entry_without_sequence_rejected(self, tmp_path):
        write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3))], test_subjects=())
        (tmp_path / "test_gestures.txt").write_text("5 1 1 1\n")
        with pytest.raises(InvalidInput, match="no skeleton_world.txt or skeletons_world.txt") as err:
            data.load_dhg(tmp_path, "test")
        assert err.value.where == {"path": str(tmp_path / "gesture_5" / "finger_1" / "subject_1" / "essai_1")}
        assert f"for an entry of {tmp_path / 'test_gestures.txt'} [" in str(err.value)  # the file that lists it

    def test_missing_split_file_rejected(self, tmp_path):
        write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3))], test_subjects=())
        (tmp_path / "test_gestures.txt").unlink()
        with pytest.raises(FileNotFoundError) as err:
            data.load_dhg(tmp_path, "train")
        assert err.value.filename == str(tmp_path / "test_gestures.txt")

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_key_in_both_split_files_rejected(self, split, tmp_path):
        # A sequence in both splits would be tested on what it was trained on.
        write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (1, 1, 2, 1, _valid_frames(3))],
                       test_subjects=(2,))
        with open(tmp_path / "test_gestures.txt", "a") as fh:
            fh.write("1 1 1 1\n")
        with pytest.raises(InvalidInput, match=re.escape("sequence (1, 1, 1, 1) is in both split files")) as err:
            data.load_dhg(tmp_path, split)
        assert err.value.where == {"path": str(tmp_path / "test_gestures.txt")}
        assert f"here and in {tmp_path / 'train_gestures.txt'} [" in str(err.value)  # the other file that lists it

    @pytest.mark.parametrize("splits", [("val",), ("train", "val")], ids=["alone", "after-train"])
    def test_unknown_split_rejected(self, splits, tmp_path):
        write_dhg_tree(tmp_path, [(1, 1, 1, 1, _valid_frames(3)), (1, 1, 2, 1, _valid_frames(3))],
                       test_subjects=(2,))
        with pytest.raises(InvalidInput, match=re.escape("unknown split 'val'")) as err:
            data.load_dhg(tmp_path, *splits)
        assert err.value.where == {}
