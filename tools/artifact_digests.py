"""SHA-256 digests of the artifacts of a fixed set of rodwave commands.

Runs each command with ``python -m rodwave --quiet``, each into its own
subdirectory of a temporary directory, and prints one ``sha256  path`` line
(the format of ``sha256sum``) per CSV and ``order_report.json`` written,
sorted by path.  Manifests are left out: they hold wall times and the
version.  Runs are deterministic, so two checkouts that compute the same
numbers print the same lines:

    python tools/artifact_digests.py > change.txt
    python tools/artifact_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

The default set is ``run`` on the six bundled configs, ``compare`` on three
and ``converge`` on three.  Commands given as arguments, each one quoted
string such as ``"compare --config cuspon_gamma5"``, replace it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

BUNDLED = ("smooth_gamma02", "peakon_c1", "cuspon_gamma5", "peakon_antipeakon_gamma5",
           "peakon_antipeakon_gamma1", "collision_smooth")
COMMANDS = (
    *(f"run --config {name}" for name in BUNDLED),
    "compare --config smooth_gamma02",
    "compare --config peakon_antipeakon_gamma5",
    "compare --config collision_smooth",
    "converge --config peakon_c1 --dxi-list 0.4,0.2,0.1",
    "converge --config smooth_gamma02 --dt-list 0.2,0.1,0.05 --dxi-list 1,0.5,0.25,0.125",
    "converge --config peakon_antipeakon_gamma5 --dxi-list 0.4,0.2,0.1,0.05",
)


def digests(commands, src: Path) -> list[str]:
    """The ``sha256  path`` lines of every CSV and order report that
    ``commands`` write, run on the package under ``src``.  Command k writes
    under ``k<two digits>``, so two commands of one config do not share a
    directory."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, command in enumerate(commands):
            out = Path(tmp) / f"k{k:02d}"
            argv = [sys.executable, "-m", "rodwave", "--quiet", *shlex.split(command),
                    "--out", str(out)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            if done.returncode:
                raise SystemExit(f"{command!r} exited with {done.returncode}:\n{done.stderr}")
            for path in sorted(out.rglob("*")):
                if path.suffix == ".csv" or path.name == "order_report.json":
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {path.relative_to(tmp)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*", help="rodwave commands, each one quoted string")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the directory holding the rodwave package (default: this "
                             "checkout's src)")
    args = parser.parse_args(argv)
    for line in digests(args.commands or COMMANDS, args.src.resolve()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
