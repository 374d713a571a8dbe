"""Edit npz archives member by member, to build the malformed files that
``data.read_npz`` and the readers over it must reject."""

import io
import zipfile

import numpy as np


def claimed(shape, descr="<f8") -> bytes:
    """An .npy member whose header claims ``shape`` of ``descr`` but that
    holds 64 zero bytes of data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue() + b"\x00" * 64


def edit_npz(path, **changes):
    """Rewrite the archive at ``path`` with each named member replaced by an
    ndarray, by raw .npy bytes (``claimed``), or dropped (None); returns ``path``."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    for name, value in changes.items():
        del members[f"{name}.npy"]
        if isinstance(value, np.ndarray):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(value))
            value = buf.getvalue()
        if value is not None:
            members[f"{name}.npy"] = value
    with zipfile.ZipFile(path, "w") as archive:
        for filename, blob in members.items():
            archive.writestr(filename, blob)
    return path
