"""Write DHG-shaped dataset trees, the layout ``data.load_dhg`` reads."""

from handspd import data


def write_dhg_tree(root, entries, test_subjects, name="skeleton_world.txt"):
    """entries: iterable of (gesture, finger, subject, trial, frames).  Each
    float is written with ``repr``, so the text reads back bit for bit.
    ``test_gestures.txt`` lists the entries of ``test_subjects`` and
    ``train_gestures.txt`` the others.  Returns the skeleton file of each
    entry, in order."""
    paths, splits = [], {"train_gestures.txt": [], "test_gestures.txt": []}
    for g, f, s, e, frames in entries:
        d = root / f"gesture_{g}" / f"finger_{f}" / f"subject_{s}" / f"essai_{e}"
        d.mkdir(parents=True)
        lines = [" ".join(map(repr, frame.ravel().tolist())) for frame in frames]
        paths.append(d / name)
        paths[-1].write_text("\n".join(lines) + "\n")
        splits["test_gestures.txt" if s in test_subjects else "train_gestures.txt"].append(f"{g} {f} {s} {e}\n")
    for split, lines in splits.items():
        (root / split).write_text("".join(lines))
    return paths


def synth_dhg_tree(root, n_classes=4, subjects=3, lengths=(6, 11)):
    """A tree of ``data.synth_generate`` gestures 1..n_classes at both
    fingers: finger f's sequences have ``lengths[f - 1]`` frames and are
    seeded by f, and trial t is subject t + 1.  Subject ``subjects`` is the
    test split, the others train.  Returns the skeleton files."""
    entries = [
        (seq.label_14, finger, seq.trial + 1, 1, seq.frames)
        for finger, length in enumerate(lengths, start=1)
        for seq in data.synth_generate(subjects, n_classes, seed=finger, length=length)
    ]
    return write_dhg_tree(root, entries, test_subjects=(subjects,))
