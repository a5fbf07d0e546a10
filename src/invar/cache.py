"""Content-addressed cache for computed polynomial files, and the
atomic file write every output path uses.

Each entry is a text file whose first line is "hash: <sha256 of the
payload>"; the rest is the payload verbatim.  A digest mismatch or an
entry that is not UTF-8 is treated as a miss, so a corrupted entry is
recomputed and overwritten, never silently reused.
"""

import hashlib
import os
import stat
from typing import Optional


def write_atomic(path: str, text: str) -> None:
    """Write text to path so that readers see the old file or the whole
    new one, never a torn write: the text goes to a temp file in the same
    directory, is flushed to disk, and then replaces path.  Symlinks are
    followed, and a replaced file keeps its permission bits.  A path that
    exists but is not a regular file (os.devnull, a FIFO, a terminal)
    cannot be replaced, so it is written in place."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def fetch(cache_dir: str, key: str) -> Optional[str]:
    """The cached payload for key, or None on miss or corruption."""
    path = os.path.join(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    head, _, payload = text.partition("\n")
    if not head.startswith("hash: "):
        return None
    if head[len("hash: "):].strip() != _digest(payload):
        return None
    return payload


def store(cache_dir: str, key: str, payload: str) -> str:
    """Write payload under key; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key)
    write_atomic(path, f"hash: {_digest(payload)}\n{payload}")
    return path
