"""Atomic file replacement, shared by every writer in the package."""

import contextlib
import os


def atomic_write(path, *chunks) -> None:
    """Write the bytes-like chunks, in order, to path through a temp file
    and a rename.

    Readers see the old file or the new one, never a partial write.  If the
    write or the rename fails, the temp file is removed and the error
    re-raised.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
