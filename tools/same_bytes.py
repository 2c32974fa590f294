"""Check that two checkouts produce the same bytes on one fixed corpus.

    python3 tools/same_bytes.py PARENT_DIR CHANGE_DIR

Each checkout runs the corpus in a child Python of its own, with its
src/ first on the path, in a fresh working directory and with BLAS on one
thread.  Every item is a sha256:

- `sample`, `apply` and `orbit` on D4, E6, E7 and E8 at seeds 0, 1, 2
  and 5: stdout, stderr, exit code and the written file.  `apply` runs the
  central word and a word of tensor (a Gaussian shift), translate, leg,
  central and tensor tags; `orbit` runs light translation vectors 0 and 1
  for 6 steps;
- the heavy E8 orbit that exits 3 (seed 1, two steps), stderr included;
- `sakai` on the r = 9 wall configuration of tests/data;
- the residues, lam and offsets of a central reflection and a light
  translate of every type at seeds 0-14, run in-process.

The tool exits 1 at the first item whose sha256 differs, or when a child
fails; otherwise it prints the item count and the corpus digest (the
sha256 of all items) and exits 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

CHILD = r'''
import contextlib, hashlib, io, json, os, pathlib, shutil, sys
src = sys.argv[1]
sys.path.insert(0, src)
import numpy as np
import starweyl
from starweyl import cli
from starweyl.dynkin import AFFINE_TYPES, StarGraph
from starweyl.errors import DegeneracyError
from starweyl.fuchsian import sample_system
from starweyl.ratlin import format_rational
from starweyl.weylops import central_reflection, light_translation_basis, translate
if not os.path.abspath(starweyl.__file__).startswith(src + os.sep):
    sys.exit(f"starweyl loaded from {starweyl.__file__}, not {src}")


def emit(name, blob):
    print(name, hashlib.sha256(blob).hexdigest(), flush=True)


def run(name, *argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    out = pathlib.Path(argv[argv.index("--out") + 1] if "--out" in argv else "")
    written = out.read_bytes() if out.is_file() else b""
    emit(name, json.dumps([code, stdout.getvalue(), stderr.getvalue()]).encode()
         + written)


def word(name, tags):
    with open(name, "w") as fh:
        json.dump({"schema": "starweyl/word-v1", "tags": tags}, fh)
    return name


def finite(mu):
    return [int(x) for x in mu.values[:-1]]


def state(sysm):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in sysm.residues) \
        + " ".join(map(format_rational, sysm.lam.values + sysm.offsets)).encode()


central = word("central.json", [["central"]])
for name in AFFINE_TYPES:
    g = StarGraph.affine(name)
    basis = light_translation_basis(g)
    node = g.leg_nodes(g.num_legs - 1)[0]  # swaps the first eigenvalues
    gauss = ["1/2+1/3i"] + list(range(g.num_legs - 2))
    mixed = word(f"{name}-mixed.json",
                 [["tensor", gauss], ["translate", finite(basis[0])],
                  ["leg", node], ["central"], ["tensor", gauss]])
    for seed in (0, 1, 2, 5):
        sysfile = f"{name}-{seed}.json"
        run(f"sample/{name}/{seed}", "sample", "--type", name, "--seed",
            str(seed), "--out", sysfile)
        for tag, wfile in (("central", central), ("mixed", mixed)):
            out = f"{name}-{seed}-{tag}.out.json"
            run(f"apply/{tag}/{name}/{seed}", "apply", "--system", sysfile,
                "--word", wfile, "--out", out)
        for k in (0, 1):
            run(f"orbit/{k}/{name}/{seed}", "orbit", "--system", sysfile,
                "--mu", json.dumps(finite(basis[k])), "--steps", "6")
run("orbit/heavy/E8/1", "orbit", "--system", "E8-1.json", "--mu",
    "[10, 1, -2, -7, -6, -1, -1, -1, -2]", "--steps", "2")
shutil.copy(os.path.join(src, "..", "tests", "data", "sakai_r9_wall.json"), ".")
run("sakai/r9", "sakai", "--config", "sakai_r9_wall.json",
    "--mu", "[1, 0, -2, 0, 1, 0, 0, 3]", "--steps", "30")
for name in AFFINE_TYPES:
    for seed in range(15):
        sysm = sample_system(name, seed)[0]
        mu = light_translation_basis(sysm.graph)[0]
        for tag, op in (("central", central_reflection),
                        ("translate", lambda s: translate(s, mu))):
            try:
                blob = state(op(sysm))
            except DegeneracyError as exc:
                blob = str(exc).encode()
            emit(f"{tag}/{name}/{seed}", blob)
'''

BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}


def digests(checkout: str) -> list[str]:
    """The corpus lines `name sha256` of one checkout."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", **BLAS_PIN)
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-c", CHILD, src], cwd=work,
                              env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"same_bytes: the corpus failed in {checkout}")
    return proc.stdout.splitlines()


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = map(digests, sys.argv[1:])
    for a, b in zip(parent, change):
        if a != b:
            print(f"differs: {a.split()[0]}\n  parent {a.split()[1]}\n"
                  f"  change {b.split()[1]}")
            return 1
    if len(parent) != len(change):
        print(f"differs: {len(parent)} items against {len(change)}")
        return 1
    corpus = hashlib.sha256("\n".join(parent).encode()).hexdigest()
    print(f"same bytes: {len(parent)} items, corpus digest {corpus}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
