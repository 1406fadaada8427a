"""Byte identity of the closed-form CLI artifacts.

Each invocation in ``artifact_digests.json`` runs in-process through
``cli.main``, and its stdout must have the table's byte count and sha256
digest.  The table covers ``shift``, ``sweep --beta-points 1024`` and
``figure 1/2/3`` at the defaults, in csv and json, and the same five
commands as the ``cli_cold`` benchmark workload draws them at seeds 0 and 1.

The digests pin the host the table was made on: the beta grids call libm
``pow``, and the integrating commands, once listed, read numpy's ``exp``,
``sin`` and ``cos``.  The table records the glibc and numpy versions it was
made with, and a mismatch names any that differ from this host's.

A change that moves an artifact on purpose rewrites the digests in the same
diff and says so; an invocation is added as a name and an argv in the table
before the digests are rewritten:

    PYTHONPATH=src python tests/test_artifacts.py
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from pairpulse import cli

TABLE = Path(__file__).with_name("artifact_digests.json")


def host_versions() -> dict:
    return {"glibc": platform.libc_ver()[1], "numpy": np.__version__}


def artifact(argv) -> bytes:
    """stdout of ``cli.main(argv)``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


def _record(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


_table = json.loads(TABLE.read_text())


@pytest.mark.parametrize("name", list(_table["artifacts"]))
def test_artifact_bytes_match_the_table(name):
    entry = _table["artifacts"][name]
    got = _record(artifact(entry["argv"]))
    if got != {"bytes": entry["bytes"], "sha256": entry["sha256"]}:
        differ = [f"{lib} {ver} (table: {_table['host'][lib]})"
                  for lib, ver in host_versions().items() if ver != _table["host"][lib]]
        pytest.fail(
            f"{' '.join(entry['argv'])}: {got['bytes']} bytes, sha256 {got['sha256']}; "
            f"the table has {entry['bytes']} bytes, sha256 {entry['sha256']}; "
            + (f"this host differs from the table's: {', '.join(differ)}" if differ else
               "this host has the table's glibc and numpy, so the artifact changed"))


if __name__ == "__main__":
    _table["host"] = host_versions()
    for entry in _table["artifacts"].values():
        entry.update(_record(artifact(entry["argv"])))
    TABLE.write_text(json.dumps(_table, indent=1) + "\n")
